package core

import (
	"testing"

	"repro/internal/memctrl"
	"repro/internal/msg"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestStateHelpers: the L1 state helpers are shared by both protocols; the
// diagnostic name tables are picked per protocol at construction (DirCMP
// only marks a busy line, FtDirCMP names the transaction phase).
func TestStateHelpers(t *testing.T) {
	forBothProtocols(t, func(t *testing.T, ft bool) {
		if !ownerState(StateM) || !ownerState(StateE) || !ownerState(StateO) || ownerState(StateS) {
			t.Fatal("ownerState wrong")
		}
		if !writableState(StateM) || !writableState(StateE) || writableState(StateO) || writableState(StateS) {
			t.Fatal("writableState wrong")
		}
		if permOf(StateS) != proto.PermRead || permOf(StateO) != proto.PermRead {
			t.Fatal("read permissions wrong")
		}
		if permOf(StateE) != proto.PermWrite || permOf(StateM) != proto.PermWrite {
			t.Fatal("write permissions wrong")
		}
		if permOf(0) != proto.PermNone {
			t.Fatal("invalid state has permissions")
		}
		for _, s := range []int{StateS, StateE, StateM, StateO, 99} {
			if stateName(s) == "" {
				t.Fatalf("stateName(%d) empty", s)
			}
		}

		l2, _, _, _ := newTestL2(t, ft)
		mem, _, _, _ := newTestMem(t, ft)
		wantL2, wantMem := &baseL2Names, &baseMemNames
		busy, wb, chip := "M+txn", "WB", "chip+txn"
		if ft {
			wantL2, wantMem = &ftL2Names, &ftMemNames
			busy, wb, chip = "M+wait-unblock", "WB+wait-unblock", "chip+wait-unblock"
		}
		if l2.names != wantL2 || mem.names != wantMem {
			t.Fatal("controller picked the other protocol's name table")
		}
		if got := l2.names.statePhase[L2StateM][phaseWaitUnblock]; got != busy {
			t.Fatalf("L2 busy name %q, want %q", got, busy)
		}
		if got := l2.names.wb[phaseWaitUnblock]; got != wb {
			t.Fatalf("L2 writeback name %q, want %q", got, wb)
		}
		if got := mem.names.chip[memWaitUnblock]; got != chip {
			t.Fatalf("memory busy name %q, want %q", got, chip)
		}
	})
}

// protoName names the protocol a controller built with ft runs.
func protoName(ft bool) string {
	if ft {
		return "FtDirCMP"
	}
	return "DirCMP"
}

// TestDirCMPDrawsNoSerialNumbers: the baseline builds no serial-number
// space, so it accepts a configuration without serial number bits.
func TestDirCMPDrawsNoSerialNumbers(t *testing.T) {
	params := testParams()
	params.SerialBits = 0
	topo := proto.Topology{Tiles: 4, Mems: 2, LineSize: 64}
	engine, net, run := sim.NewEngine(), &fakeNet{}, stats.NewRun("DirCMP", "unit")
	l1, err := NewL1(topo.L1(0), topo, params, engine, net, run, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := NewL2(topo.L2(0), topo, params, engine, net, run, false)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMem(topo.Mem(0), topo, params, engine, net, run, memctrl.NewStore(), false)
	if l1.serial != nil || l2.serial != nil || m.serial != nil {
		t.Fatal("DirCMP controller built a serial-number space")
	}
	l1.Write(0x40, 1, func(proto.AccessResult) {})
	if req := net.lastOfType(msg.GetX); req == nil || req.SN != 0 {
		t.Fatalf("DirCMP request carries a serial number: %v", net.sent)
	}
	if engine.Pending() != 0 {
		t.Fatal("DirCMP armed a timer")
	}
}
