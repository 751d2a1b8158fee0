package fault

import (
	"math"
	"testing"
)

// Test points registered once for the whole package test binary.
var (
	testPointA = Register("test.alpha", "fault-test", "test point A", 0.25, 3)
	testPointB = Register("test.beta", "fault-test", "test point B", 0, 0)
)

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	for i := 0; i < 100; i++ {
		if in.Fire(testPointA) {
			t.Fatal("nil injector fired")
		}
	}
	if in.Fired(testPointA) != 0 || in.Checked(testPointA) != 0 {
		t.Fatal("nil injector counted activity")
	}
	if got := in.Counters(); got != nil {
		t.Fatalf("nil injector counters = %v", got)
	}
}

func TestUnarmedPointNeverFires(t *testing.T) {
	in := NewInjector(7)
	for i := 0; i < 100; i++ {
		if in.Fire(testPointA) {
			t.Fatal("unarmed point fired")
		}
	}
}

func TestFireRateAndDeterminism(t *testing.T) {
	seq := func(seed uint64) []bool {
		in := NewInjector(seed)
		in.Arm(testPointA, 0.25)
		out := make([]bool, 2000)
		for i := range out {
			out[i] = in.Fire(testPointA)
		}
		return out
	}
	a, b := seq(42), seq(42)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at check %d", i)
		}
		if a[i] {
			fired++
		}
	}
	// 2000 checks at p=0.25: expect ~500; allow a wide deterministic band.
	if fired < 350 || fired > 650 {
		t.Fatalf("fired %d/2000 at rate 0.25", fired)
	}
	c := seq(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestPerPointStreamsIndependent(t *testing.T) {
	// Interleaving checks of another point must not perturb a point's own
	// sequence (each point has its own derived sub-stream).
	solo := NewInjector(9)
	solo.Arm(testPointA, 0.5)
	var want []bool
	for i := 0; i < 500; i++ {
		want = append(want, solo.Fire(testPointA))
	}

	mixed := NewInjector(9)
	mixed.Arm(testPointA, 0.5)
	mixed.Arm(testPointB, 0.5)
	for i := 0; i < 500; i++ {
		mixed.Fire(testPointB) // interleaved noise
		if got := mixed.Fire(testPointA); got != want[i] {
			t.Fatalf("point A sequence perturbed by point B at check %d", i)
		}
	}
}

func TestMagnitudeDefaultsFromRegistry(t *testing.T) {
	in := NewInjector(1)
	in.Arm(testPointA, 1)
	ok, mag := in.FireMagnitude(testPointA)
	if !ok || mag != 3 {
		t.Fatalf("FireMagnitude = (%v, %v), want (true, 3)", ok, mag)
	}
	in.ArmMagnitude(testPointA, 1, 8)
	if _, mag := in.FireMagnitude(testPointA); mag != 8 {
		t.Fatalf("explicit magnitude not honored: %v", mag)
	}
}

func TestCounters(t *testing.T) {
	in := NewInjector(5)
	in.Arm(testPointA, 1)
	in.Arm(testPointB, 0)
	in.Fire(testPointA)
	in.Fire(testPointA)
	in.Fire(testPointB)
	cs := in.Counters()
	if len(cs) != 2 {
		t.Fatalf("got %d counters", len(cs))
	}
	// Sorted by name: test.alpha before test.beta.
	if cs[0].Point != testPointA || cs[0].Checked != 2 || cs[0].Fired != 2 {
		t.Fatalf("alpha counter = %+v", cs[0])
	}
	if cs[1].Point != testPointB || cs[1].Fired != 0 {
		t.Fatalf("beta counter = %+v", cs[1])
	}
}

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule(" test.alpha=0.1, test.beta=0.02 ")
	if err != nil {
		t.Fatal(err)
	}
	if s[testPointA] != 0.1 || s[testPointB] != 0.02 {
		t.Fatalf("parsed %v", s)
	}
	if _, err := ParseSchedule("nope=0.1"); err == nil {
		t.Fatal("unknown point accepted")
	}
	if _, err := ParseSchedule("test.alpha=1.5"); err == nil {
		t.Fatal("rate > 1 accepted")
	}
	if _, err := ParseSchedule("test.alpha"); err == nil {
		t.Fatal("missing rate accepted")
	}
	if _, err := ParseSchedule("test.alpha=NaN"); err == nil {
		t.Fatal("NaN rate accepted")
	}
	if s, err := ParseSchedule(""); err != nil || len(s) != 0 {
		t.Fatalf("empty spec: %v %v", s, err)
	}
}

func TestScheduleScaleAndString(t *testing.T) {
	s := Schedule{testPointA: 0.4, testPointB: 0.1}
	d := s.Scale(3)
	if d[testPointA] != 1 || d[testPointB] != 0.30000000000000004 && d[testPointB] != 0.3 {
		t.Fatalf("scaled %v", d)
	}
	if got := s.String(); got != "test.alpha=0.4,test.beta=0.1" {
		t.Fatalf("String() = %q", got)
	}
}

func TestScheduleValidate(t *testing.T) {
	if err := (Schedule{testPointA: 0.5, testPointB: 0}).Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	if err := (Schedule(nil)).Validate(); err != nil {
		t.Fatalf("nil schedule rejected: %v", err)
	}
	cases := []struct {
		name string
		s    Schedule
	}{
		{"unknown point", Schedule{"test.no-such-point": 0.1}},
		{"negative rate", Schedule{testPointA: -0.1}},
		{"NaN rate", Schedule{testPointA: math.NaN()}},
		{"rate above 1", Schedule{testPointA: 1.5}},
	}
	for _, tc := range cases {
		if err := tc.s.Validate(); err == nil {
			t.Errorf("%s accepted: %v", tc.name, tc.s)
		}
	}
}

func TestScheduleClone(t *testing.T) {
	orig := Schedule{testPointA: 0.4, testPointB: 0.1}
	cp := orig.Clone()
	cp[testPointA] = 0.9
	delete(cp, testPointB)
	if orig[testPointA] != 0.4 || orig[testPointB] != 0.1 {
		t.Fatalf("mutating a clone changed the original: %v", orig)
	}
	if cp[testPointA] != 0.9 || len(cp) != 1 {
		t.Fatalf("clone did not take mutations: %v", cp)
	}
	if got := Schedule(nil).Clone(); got != nil {
		t.Fatalf("Clone of nil = %v, want nil", got)
	}
}

func TestDefaultScheduleUsesRegisteredRates(t *testing.T) {
	s := DefaultSchedule()
	if s[testPointA] != 0.25 {
		t.Fatalf("alpha default rate = %v", s[testPointA])
	}
	if _, present := s[testPointB]; present {
		t.Fatal("zero-rate point included in default schedule")
	}
}
