package policy

import (
	"fmt"
	"sync"
	"testing"

	"aheft/internal/dag"
	"aheft/internal/grid"
	"aheft/internal/kernel"
	"aheft/internal/schedule"
	"aheft/internal/workload"
)

// TestBuiltinsRegistered: the five built-in policies are present with the
// expected adaptivity.
func TestBuiltinsRegistered(t *testing.T) {
	want := map[string]bool{
		"heft": false, "aheft": true,
		"minmin": false, "maxmin": false, "sufferage": false,
	}
	for name, adaptive := range want {
		p, ok := Lookup(name)
		if !ok {
			t.Fatalf("%q not registered (have %v)", name, Names())
		}
		if p.Name() != name {
			t.Fatalf("policy %q reports name %q", name, p.Name())
		}
		if p.Adaptive() != adaptive {
			t.Fatalf("%q adaptive = %v, want %v", name, p.Adaptive(), adaptive)
		}
	}
}

// TestLookupCanonicalises: lookups are case- and whitespace-insensitive.
func TestLookupCanonicalises(t *testing.T) {
	for _, name := range []string{"AHEFT", " aheft ", "Aheft"} {
		if _, ok := Lookup(name); !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("Get accepted an unknown name")
	}
}

// stubPolicy is a registrable no-op for registry tests.
type stubPolicy struct{ name string }

func (s stubPolicy) Name() string   { return s.name }
func (s stubPolicy) Adaptive() bool { return false }
func (s stubPolicy) Plan(*kernel.Kernel, *grid.Pool, Options) (*schedule.Schedule, error) {
	return schedule.New(), nil
}
func (s stubPolicy) Replan(*kernel.Kernel, []grid.Resource, *kernel.State, Options) (*schedule.Schedule, error) {
	return nil, nil
}

// TestRegisterRejectsDuplicatesAndNil: registry invariants.
func TestRegisterRejectsDuplicatesAndNil(t *testing.T) {
	if err := Register(nil); err == nil {
		t.Fatal("Register(nil) accepted")
	}
	if err := Register(stubPolicy{name: ""}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := Register(stubPolicy{name: "heft"}); err == nil {
		t.Fatal("duplicate of built-in accepted")
	}
	if err := Register(stubPolicy{name: "Test-Dup"}); err != nil {
		t.Fatal(err)
	}
	if err := Register(stubPolicy{name: "test-dup"}); err == nil {
		t.Fatal("canonical duplicate accepted")
	}
	if _, ok := Lookup("test-dup"); !ok {
		t.Fatal("registered stub not found")
	}
}

// TestRegistryConcurrentAccess hammers Register/Lookup/Names from many
// goroutines; run with -race.
func TestRegistryConcurrentAccess(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("race-%d", i)
			if err := Register(stubPolicy{name: name}); err != nil {
				t.Errorf("register %s: %v", name, err)
			}
			for j := 0; j < 100; j++ {
				if _, ok := Lookup(name); !ok {
					t.Errorf("lost %s", name)
				}
				Names()
				MustGet("aheft")
			}
		}()
	}
	wg.Wait()
}

// TestJITFamilyDiffers: the three heuristics are genuinely distinct
// policies that may produce different schedules but all complete.
func TestJITFamily(t *testing.T) {
	sc := workload.SampleScenario()
	for _, name := range []string{"minmin", "maxmin", "sufferage"} {
		p := MustGet(name)
		s, err := p.Plan(kernel.New(sc.Graph, sc.Estimator()), sc.Pool, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Len() != sc.Graph.Len() {
			t.Fatalf("%s: schedule covers %d of %d jobs", name, s.Len(), sc.Graph.Len())
		}
		if s.Makespan() <= 0 {
			t.Fatalf("%s: no makespan", name)
		}
	}
}

// TestJITValidation: the just-in-time planner rejects degenerate inputs.
func TestJITValidation(t *testing.T) {
	sc := workload.SampleScenario()
	p := MustGet("minmin")
	if _, err := p.Plan(kernel.New(dag.New("empty"), sc.Estimator()), sc.Pool, Options{}); err == nil {
		t.Fatal("empty graph accepted")
	}
	if _, err := p.Plan(kernel.New(sc.Graph, sc.Estimator()), nil, Options{}); err == nil {
		t.Fatal("nil pool accepted")
	}
}

// TestHEFTPlanEqualsAHEFTPlan: the adaptive policy's initial plan is
// classic HEFT by construction (§3.4: AHEFT is identical to HEFT when
// clock = 0).
func TestHEFTPlanEqualsAHEFTPlan(t *testing.T) {
	sc := workload.SampleScenario()
	h, err := MustGet("heft").Plan(kernel.New(sc.Graph, sc.Estimator()), sc.Pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := MustGet("aheft").Plan(kernel.New(sc.Graph, sc.Estimator()), sc.Pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Makespan() != a.Makespan() {
		t.Fatalf("HEFT plan %g != AHEFT plan %g", h.Makespan(), a.Makespan())
	}
	for _, j := range sc.Graph.Jobs() {
		if h.MustGet(j.ID) != a.MustGet(j.ID) {
			t.Fatalf("job %s differs between plans", j.Name)
		}
	}
}

// TestStaticPoliciesProposeNothing: Replan on non-adaptive policies is a
// declared no-op.
func TestStaticPoliciesProposeNothing(t *testing.T) {
	sc := workload.SampleScenario()
	for _, name := range []string{"heft", "minmin", "maxmin", "sufferage"} {
		k := kernel.New(sc.Graph, sc.Estimator())
		s, err := MustGet(name).Replan(k, sc.Pool.Initial(), k.NewState(0), Options{})
		if err != nil || s != nil {
			t.Fatalf("%s.Replan = (%v, %v), want (nil, nil)", name, s, err)
		}
	}
}

// TestAHEFTReplanAtClockZeroIsHEFT: rescheduling an empty snapshot over
// the initial pool reproduces the HEFT plan exactly.
func TestAHEFTReplanAtClockZeroIsHEFT(t *testing.T) {
	sc := workload.SampleScenario()
	k := kernel.New(sc.Graph, sc.Estimator())
	plan, err := MustGet("heft").Plan(k, sc.Pool, Options{})
	if err != nil {
		t.Fatal(err)
	}
	re, err := MustGet("aheft").Replan(k, sc.Pool.Initial(), k.NewState(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re == nil || re.Makespan() != plan.Makespan() {
		t.Fatalf("replan at clock 0 != HEFT plan")
	}
}
