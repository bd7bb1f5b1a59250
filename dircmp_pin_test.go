package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/msg"
)

// TestDirCMPPinned pins the DirCMP baseline end to end: for the quick and
// the Table-4 system and every workload (suite and extras) it records the
// cycle count, the structured event stream, the Result JSON and the final
// memory image, plus the deadlock dumps of quick runs that each lose the
// first message of one type. DirCMP is the reference FtDirCMP is measured
// against, so any change to its simulated behaviour — message for message —
// shows up here. Regenerate with
// `go test -run TestDirCMPPinned -update-golden .` only after an
// intentional change to the baseline.
func TestDirCMPPinned(t *testing.T) {
	var out bytes.Buffer
	configs := []struct {
		name string
		cfg  Config
	}{{"quick", QuickConfig()}, {"default", DefaultConfig()}}
	workloads := append(Workloads(), WorkloadExtras()...)
	for _, c := range configs {
		for _, w := range workloads {
			cfg := c.cfg
			cfg.Protocol = DirCMP
			cfg.RecordEvents = true
			// The Table-4 uniform run emits ~124k events; the ring must
			// keep them all for the stream hash to cover the whole run.
			cfg.EventBufferSize = 1 << 18
			res, err := Run(cfg, w)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, w, err)
			}
			if n := len(res.Events()); n >= cfg.EventBufferSize {
				t.Fatalf("%s/%s: %d events filled the ring", c.name, w, n)
			}
			var events bytes.Buffer
			if err := res.WriteEventsJSONL(&events); err != nil {
				t.Fatal(err)
			}
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%-7s %-10s cycles=%d events=%d events_sha=%x result_sha=%x image=%016x\n",
				c.name, w, res.Cycles, len(res.Events()),
				sha256.Sum256(events.Bytes()), sha256.Sum256(js), res.MemoryImageHash)
		}
	}

	// Deadlock dumps render every controller's transient line states, so
	// losing the first message of each DirCMP type pins those names too.
	cfg := QuickConfig()
	cfg.Protocol = DirCMP
	for _, typ := range []msg.Type{msg.GetX, msg.GetS, msg.Put, msg.Data, msg.DataEx, msg.Ack,
		msg.Inv, msg.Unblock, msg.UnblockEx, msg.WbAck, msg.WbData, msg.WbNoData} {
		_, err := RunWithInjector(cfg, "uniform", fault.NewNthOfType(typ, 1))
		if err == nil {
			t.Fatalf("DirCMP survived a lost %v", typ)
		}
		fmt.Fprintf(&out, "\nquick uniform, first %v lost:\n%v\n", typ, err)
	}
	checkGolden(t, "dircmp.txt", out.Bytes())
}
