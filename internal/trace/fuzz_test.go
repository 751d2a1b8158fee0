package trace

import (
	"bytes"
	"testing"

	"demeter/internal/workload"
)

// FuzzNewReplayer checks the trace header parser and the access decoder:
// neither panics, every header NewReplayer accepts names only heap ('h')
// and mmap ('m') regions (the two kinds Setup can re-reserve), and
// draining an accepted trace plays at most total accesses.
func FuzzNewReplayer(f *testing.F) {
	var rec bytes.Buffer
	n, err := Record(&rec, workload.Must(workload.NewGUPS(64, 200, 1)), newFakeAS())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Bytes(), n)
	f.Add(rec.Bytes()[:len(rec.Bytes())/2], n)
	f.Add([]byte("DMTR\x01\x02h\x80\x20\x00m\x80\x40\x00\x02\x05\x03"), uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, total uint64) {
		rp, err := NewReplayer("fuzz", bytes.NewReader(data), total, 0)
		if err != nil {
			return
		}
		for i, r := range rp.regions {
			if r.Kind != 'h' && r.Kind != 'm' {
				t.Fatalf("accepted region %d of kind %q", i, r.Kind)
			}
		}
		rp.ready = true
		buf := make([]workload.Access, 64)
		var played uint64
		for {
			k, done := rp.Fill(buf)
			played += uint64(k)
			if done {
				break
			}
		}
		if played > total {
			t.Fatalf("played %d accesses of a %d-access trace", played, total)
		}
	})
}
