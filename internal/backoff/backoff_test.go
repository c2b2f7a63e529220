package backoff

import (
	"context"
	"testing"
	"time"
)

func TestBudgetExhausts(t *testing.T) {
	r := NewSeeded(Policy{Base: time.Millisecond, Budget: 3}, 1)
	for i := 0; i < 3; i++ {
		if _, ok := r.Next(0); !ok {
			t.Fatalf("retry %d refused within budget", i)
		}
	}
	if _, ok := r.Next(0); ok {
		t.Fatal("retry granted past the budget")
	}
	if got := r.Attempts(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	r.Reset()
	if _, ok := r.Next(0); !ok {
		t.Fatal("retry refused after Reset")
	}
}

func TestZeroBudgetMeansDefault(t *testing.T) {
	r := NewSeeded(Policy{}, 1)
	granted := 0
	for {
		if _, ok := r.Next(0); !ok {
			break
		}
		granted++
		if granted > DefaultBudget {
			t.Fatal("zero-value policy grants unbounded retries")
		}
	}
	if granted != DefaultBudget {
		t.Fatalf("granted %d retries, want the default %d", granted, DefaultBudget)
	}
}

func TestUnlimitedBudget(t *testing.T) {
	r := NewSeeded(Policy{Budget: -1}, 1)
	for i := 0; i < 1000; i++ {
		if _, ok := r.Next(0); !ok {
			t.Fatalf("unlimited budget refused retry %d", i)
		}
	}
}

func TestDelaysJitteredAndBounded(t *testing.T) {
	pol := Policy{Base: 2 * time.Millisecond, Max: 16 * time.Millisecond, Multiplier: 2, Budget: 64}
	r := NewSeeded(pol, 42)
	ceil := float64(pol.Base)
	sawNonzero := false
	for i := 0; i < 64; i++ {
		d, ok := r.Next(0)
		if !ok {
			t.Fatal("budget exhausted early")
		}
		if d < 0 || float64(d) >= float64(pol.Max) {
			t.Fatalf("attempt %d: delay %v outside [0, %v)", i, d, pol.Max)
		}
		if float64(d) >= ceil {
			t.Fatalf("attempt %d: delay %v exceeds the attempt ceiling %v", i, d, time.Duration(ceil))
		}
		if d > 0 {
			sawNonzero = true
		}
		ceil *= pol.Multiplier
		if ceil > float64(pol.Max) {
			ceil = float64(pol.Max)
		}
	}
	if !sawNonzero {
		t.Fatal("every jittered delay was zero")
	}
}

func TestSeededReplay(t *testing.T) {
	a := NewSeeded(Policy{Budget: 16}, 7)
	b := NewSeeded(Policy{Budget: 16}, 7)
	for i := 0; i < 16; i++ {
		da, _ := a.Next(0)
		db, _ := b.Next(0)
		if da != db {
			t.Fatalf("attempt %d: same seed produced %v and %v", i, da, db)
		}
	}
}

func TestHintRaisesDelay(t *testing.T) {
	r := NewSeeded(Policy{Base: time.Microsecond, Max: time.Microsecond, Budget: 8}, 1)
	hint := 50 * time.Millisecond
	d, ok := r.Next(hint)
	if !ok {
		t.Fatal("retry refused")
	}
	if d < hint {
		t.Fatalf("delay %v below the server hint %v", d, hint)
	}
}

func TestSleepHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Hour); err == nil {
		t.Fatal("Sleep ignored a cancelled context")
	}
	if err := Sleep(context.Background(), 0); err != nil {
		t.Fatalf("zero sleep: %v", err)
	}
	start := time.Now()
	if err := Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("short sleep: %v", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("Sleep returned before the delay elapsed")
	}
}

// TestNewAllocatesOnlyItself pins the success path's cost: a sequence
// that never retries — nearly every query's — allocates the Retry and
// nothing else; the jitter source waits for the first granted retry.
func TestNewAllocatesOnlyItself(t *testing.T) {
	var keep *Retry
	if n := testing.AllocsPerRun(100, func() { keep = New(Policy{}) }); n != 1 {
		t.Fatalf("New allocates %v objects, want 1", n)
	}
	if keep.rng != nil {
		t.Fatal("New built the jitter source eagerly")
	}
	if _, ok := keep.Next(0); !ok || keep.rng == nil {
		t.Fatal("first granted retry did not build the jitter source")
	}
}
