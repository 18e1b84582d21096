package machine

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"procdecomp/internal/faults"
	"procdecomp/internal/trace"
)

// chainBody is a pipeline workload: proc 0 feeds rounds values into a chain
// whose middle stages increment and forward them; the last process collects.
// Tags cycle over three FIFOs per link and every stage computes between
// messages, so drops, duplicates, and reordering all get exercised.
func chainBody(rounds int, out *[]Value) func(*Proc) {
	return func(p *Proc) {
		last := p.Procs() - 1
		switch {
		case p.ID() == 0:
			for i := 0; i < rounds; i++ {
				p.Compute(7)
				p.Send(1, int64(i%3), Value(i))
			}
		case p.ID() < last:
			for i := 0; i < rounds; i++ {
				v := p.Recv1(p.ID()-1, int64(i%3))
				p.Compute(5)
				p.Send(p.ID()+1, int64(i%3), v+1)
			}
		default:
			for i := 0; i < rounds; i++ {
				*out = append(*out, p.Recv1(last-1, int64(i%3)))
				p.Compute(3)
			}
		}
	}
}

func runChain(t *testing.T, cfg Config, rounds int) ([]Value, Stats) {
	t.Helper()
	m := New(cfg)
	var out []Value
	if err := m.Run(chainBody(rounds, &out)); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return out, mustStats(t, m)
}

// TestFaultsSameResultsUnderChaos is the tentpole guarantee: a seeded chaos
// schedule with drops, duplicates, ack loss, and jitter changes only virtual
// time — the values every process computes are identical to the fault-free
// run.
func TestFaultsSameResultsUnderChaos(t *testing.T) {
	const rounds = 40
	want, clean := runChain(t, testConfig(4), rounds)

	cfg := testConfig(4)
	cfg.Faults = faults.Chaos(42, 0.10)
	got, st := runChain(t, cfg, rounds)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("values under faults differ from fault-free run:\ngot  %v\nwant %v", got, want)
	}
	if st.Retries == 0 {
		t.Error("chaos run at 10% drop recorded no retries; schedule not applied?")
	}
	if st.Lost != 0 {
		t.Errorf("chaos run lost %d messages forever; expected reliable delivery", st.Lost)
	}
	if st.Messages != clean.Messages || st.Values != clean.Values {
		t.Errorf("message accounting changed under faults: got %d/%d, want %d/%d",
			st.Messages, st.Values, clean.Messages, clean.Values)
	}
	if clean.Retries != 0 || clean.Duplicates != 0 {
		t.Errorf("fault-free run has transport counters: %+v", clean)
	}
}

// TestFaultsDeterministicPerSeed: same seed, same faults, same everything.
func TestFaultsDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) ([]Value, Stats) {
		cfg := testConfig(4)
		cfg.Faults = faults.Chaos(seed, 0.10)
		return runChain(t, cfg, 30)
	}
	out1, st1 := run(7)
	out2, st2 := run(7)
	if !reflect.DeepEqual(out1, out2) {
		t.Error("same seed produced different values")
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Errorf("same seed produced different stats:\n%+v\n%+v", st1, st2)
	}
	out3, st3 := run(8)
	if reflect.DeepEqual(st1, st3) && reflect.DeepEqual(out1, out3) {
		t.Log("seeds 7 and 8 happen to coincide (legal but suspicious)")
	}
	_ = out3
}

// TestFaultsDuplicatesSuppressed: with every ack lost, the sender retransmits
// up to its attempt budget of 16, the receiver suppresses each redundant
// copy, and timing is identical to the fault-free run (the first copy's
// arrival is what releases the message).
func TestFaultsDuplicatesSuppressed(t *testing.T) {
	cfg := testConfig(2)
	cfg.Faults = &faults.Schedule{Seed: 3, AckDrop: 1}
	m := New(cfg)
	err := m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Compute(50)
			p.Send(1, 7, 3.5)
		case 1:
			if v := p.Recv1(0, 7); v != 3.5 {
				t.Errorf("got %v, want 3.5", v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := mustStats(t, m)
	if st.Makespan != 169 {
		t.Errorf("makespan = %d, want 169 (duplicates must not delay delivery)", st.Makespan)
	}
	if st.Retries != 15 || st.Duplicates != 15 {
		t.Errorf("retries = %d, duplicates = %d, want 15 and 15 (attempts 2 to 16 are redundant)",
			st.Retries, st.Duplicates)
	}
	if st.Messages != 1 || st.Values != 1 {
		t.Errorf("duplicate suppression leaked into message accounting: %+v", st)
	}
}

// TestFaultsReorderReleasedInOrder: heavy jitter reorders arrivals on the
// wire, but the transport releases messages in sequence order, so a FIFO
// stream is received in exactly the order it was sent.
func TestFaultsReorderReleasedInOrder(t *testing.T) {
	cfg := testConfig(2)
	cfg.Faults = &faults.Schedule{Seed: 11, Delay: 1, MaxJitter: 500}
	m := New(cfg)
	var got []Value
	err := m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			for i := 0; i < 10; i++ {
				p.Send(1, 1, Value(i))
			}
		case 1:
			for i := 0; i < 10; i++ {
				got = append(got, p.Recv1(0, 1))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != Value(i) {
			t.Fatalf("message %d delivered out of order: got %v, want %v (stream %v)", i, v, Value(i), got)
		}
	}
}

// TestFaultsLostForeverWatchdog: when the transport exhausts its attempt
// budget the receive fails with a diagnosis naming the blocked (src, tag) and
// the lost message — never a hang, never a bare deadlock.
func TestFaultsLostForeverWatchdog(t *testing.T) {
	cfg := testConfig(2)
	cfg.Faults = &faults.Schedule{Seed: 1, Drop: 1}
	m := New(cfg)
	err := m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 7, 1.0)
			p.Send(1, 7, 2.0) // the link is dead by now: lost too
		case 1:
			p.Recv(0, 7)
			t.Error("receive of a lost-forever message returned")
		}
	})
	if !errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("err = %v, want ErrRecvTimeout", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "(src 0, tag 7)") || !strings.Contains(msg, "lost forever") {
		t.Errorf("error %q does not name the blocked receive and the loss", msg)
	}
	if st := mustStats(t, m); st.Lost != 2 {
		t.Errorf("lost = %d, want 2 (second send on the dead link is lost too)", st.Lost)
	}
}

// TestFaultsWireTrace: transport activity is recorded as wire events that
// leave the process-span accounting intact (VerifyTrace still reconciles
// exactly), and the Chrome export shows them on a network track.
func TestFaultsWireTrace(t *testing.T) {
	log := trace.New()
	cfg := testConfig(4)
	cfg.Faults = faults.Chaos(5, 0.10)
	cfg.Tracer = log
	m := New(cfg)
	var out []Value
	if err := m.Run(chainBody(30, &out)); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyTrace(); err != nil {
		t.Errorf("trace does not reconcile under faults: %v", err)
	}
	st := mustStats(t, m)
	counts := map[trace.WireKind]int64{}
	for _, e := range log.WireEvents() {
		counts[e.Kind]++
	}
	if counts[trace.WireDeliver] != st.Messages {
		t.Errorf("wire deliveries = %d, want %d (one per message)", counts[trace.WireDeliver], st.Messages)
	}
	if counts[trace.WireXmit] != st.Messages+st.Retries {
		t.Errorf("wire xmits = %d, want messages %d + retries %d", counts[trace.WireXmit], st.Messages, st.Retries)
	}
	if counts[trace.WireDup] != st.Duplicates || counts[trace.WireLost] != 0 {
		t.Errorf("wire counts %v disagree with stats %+v", counts, st)
	}
	var buf bytes.Buffer
	if err := log.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"network"`, `"xmit"`, `"ph":"i"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Chrome export missing %s", want)
		}
	}
}

// TestFaultsMuxPlacement: the fault transport composes with multiplexed
// placement — a chaos run over co-resident processes completes with the
// fault-free values, deterministically, and its trace reconciles.
func TestFaultsMuxPlacement(t *testing.T) {
	const rounds = 30
	clean := testConfig(4)
	clean.Placement = []int{0, 0, 1, 1}
	want, _ := runChain(t, clean, rounds)

	run := func() ([]Value, Stats) {
		log := trace.New()
		cfg := testConfig(4)
		cfg.Placement = []int{0, 0, 1, 1}
		cfg.Faults = faults.Chaos(13, 0.10)
		cfg.Tracer = log
		m := New(cfg)
		var out []Value
		if err := m.Run(chainBody(rounds, &out)); err != nil {
			t.Fatalf("multiplexed chaos run failed: %v", err)
		}
		if err := m.VerifyTrace(); err != nil {
			t.Errorf("multiplexed chaos trace does not reconcile: %v", err)
		}
		return out, mustStats(t, m)
	}
	got1, st1 := run()
	got2, st2 := run()
	if !reflect.DeepEqual(got1, want) {
		t.Errorf("multiplexed values under faults differ from fault-free run:\ngot  %v\nwant %v", got1, want)
	}
	if !reflect.DeepEqual(got1, got2) || !reflect.DeepEqual(st1, st2) {
		t.Error("multiplexed chaos run is not deterministic per seed")
	}
	if st1.Retries == 0 {
		t.Error("multiplexed chaos run recorded no retries; transport not engaged?")
	}
}
