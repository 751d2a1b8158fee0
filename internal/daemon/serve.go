package daemon

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"demeter/internal/policy"
	"demeter/internal/track"
)

// Prompt is the serve command prompt.
const Prompt = "demeter> "

// helpText documents the command language. Kept to one source of truth
// so `help` and the README stay in sync by construction.
const helpText = `commands:
  run [duration]                     advance simulated time (default: quantum)
  stats                              per-VM access and CPU accounting table
  policy -dump accessed <b0,b1,...>  idle-age histogram; boundaries like
                                     0,1ms,10ms,0 (trailing 0 = and older)
  tracker switch <vm> <kind>         swap a VM's tracker live
  vm add <name> <workload> <pages> <tracker> <policy>
                                     boot a VM (sizing from config defaults)
  vm remove <name>                   stop, detach and destroy a VM
  vms                                list managed VMs
  help                               this text
  quit                               exit the daemon
`

// Execute runs one command line and returns its output. quit reports
// whether the session should end. Errors are ordinary values — no
// command, however malformed, panics the daemon.
func (d *Daemon) Execute(line string) (out string, quit bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", false, nil
	}
	switch fields[0] {
	case "help":
		return helpText, false, nil
	case "quit", "exit":
		return "", true, nil
	case "run":
		dur := d.quantum
		if len(fields) > 1 {
			if dur, err = parseDuration(fields[1]); err != nil {
				return "", false, err
			}
		}
		if len(fields) > 2 {
			return "", false, fmt.Errorf("daemon: usage: run [duration]")
		}
		if dur > math.MaxInt64-d.eng.Now() {
			return "", false, fmt.Errorf("daemon: run %v from t=%v overflows the simulated clock", dur, d.eng.Now())
		}
		d.run(dur)
		return fmt.Sprintf("advanced to t=%v\n", d.eng.Now()), false, nil
	case "stats":
		return d.statsTable(), false, nil
	case "policy":
		if len(fields) != 4 || fields[1] != "-dump" || fields[2] != "accessed" {
			return "", false, fmt.Errorf("daemon: usage: policy -dump accessed <b0,b1,...>")
		}
		out, err := d.dumpAccessed(fields[3])
		return out, false, err
	case "tracker":
		if len(fields) != 4 || fields[1] != "switch" {
			return "", false, fmt.Errorf("daemon: usage: tracker switch <vm> <kind>")
		}
		if err := d.switchTracker(fields[2], fields[3]); err != nil {
			return "", false, err
		}
		return fmt.Sprintf("vm %s now tracked by %s\n", fields[2], fields[3]), false, nil
	case "vm":
		return d.vmCommand(fields[1:])
	case "vms":
		var b strings.Builder
		for _, name := range d.order {
			s := d.vms[name]
			trName := "-"
			if s.tr != nil {
				trName = s.tr.Name()
			}
			fmt.Fprintf(&b, "%s: %s %d pages, tracker=%s policy=%s\n",
				name, s.spec.Workload, s.spec.FootprintPages, trName, s.pol.Name())
		}
		return b.String(), false, nil
	default:
		return "", false, fmt.Errorf("daemon: unknown command %q (try 'help')", fields[0])
	}
}

// vmCommand handles the vm add/remove subcommands. Caller holds mu.
func (d *Daemon) vmCommand(args []string) (string, bool, error) {
	if len(args) == 0 {
		return "", false, fmt.Errorf("daemon: usage: vm add|remove ...")
	}
	switch args[0] {
	case "add":
		if len(args) != 6 {
			return "", false, fmt.Errorf("daemon: usage: vm add <name> <workload> <pages> <tracker> <policy>")
		}
		pages, err := strconv.ParseUint(args[3], 10, 64)
		if err != nil || pages == 0 {
			return "", false, fmt.Errorf("daemon: bad page count %q", args[3])
		}
		trackerKind := args[4]
		if trackerKind == "-" || trackerKind == "none" {
			trackerKind = ""
			if policy.TrackerDriven(args[5]) {
				return "", false, fmt.Errorf("daemon: policy %q needs a tracker (one of %v)", args[5], track.Kinds())
			}
		}
		spec := VMSpec{
			Name:           args[1],
			Workload:       args[2],
			FootprintPages: pages,
			Tracker:        TrackerSpec{Kind: trackerKind},
			Policy:         PolicySpec{Kind: args[5]},
		}
		// Carry the defaults' tuning (periods, batches) onto the chosen
		// kinds so an added VM matches its config-declared siblings.
		if def := d.cfg.Defaults.Tracker; trackerKind != "" {
			spec.Tracker = def
			spec.Tracker.Kind = trackerKind
		}
		if def := d.cfg.Defaults.Policy; def.Kind != "" || args[5] != "" {
			p := def
			p.Kind = args[5]
			spec.Policy = p
		}
		if err := d.addVM(spec); err != nil {
			return "", false, err
		}
		return fmt.Sprintf("vm %s added\n", args[1]), false, nil
	case "remove":
		if len(args) != 2 {
			return "", false, fmt.Errorf("daemon: usage: vm remove <name>")
		}
		if err := d.removeVM(args[1]); err != nil {
			return "", false, err
		}
		return fmt.Sprintf("vm %s removed\n", args[1]), false, nil
	default:
		return "", false, fmt.Errorf("daemon: unknown vm subcommand %q", args[0])
	}
}

// Serve reads command lines from r until quit or EOF, echoing each
// command after the prompt (scripted sessions produce a readable
// transcript) and writing command output or "error: ..." lines to w.
// Every transcript ends with "bye.". The loop never panics on input:
// command errors are printed and the session continues.
func (d *Daemon) Serve(r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64*1024)
	for {
		if _, err := fmt.Fprint(w, Prompt); err != nil {
			return err
		}
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return err
			}
			_, err := fmt.Fprint(w, "\nbye.\n")
			return err
		}
		line := sc.Text()
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		out, quit, err := d.Execute(line)
		if err != nil {
			if _, werr := fmt.Fprintf(w, "error: %v\n", err); werr != nil {
				return werr
			}
			continue
		}
		if out != "" {
			if _, err := fmt.Fprint(w, out); err != nil {
				return err
			}
		}
		if quit {
			_, err := fmt.Fprint(w, "bye.\n")
			return err
		}
	}
}
