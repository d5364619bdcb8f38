package policy

import (
	"strings"
	"testing"

	"aheft/internal/dag"
	"aheft/internal/kernel"
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
		p, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Fatalf("policy %q reports name %q", name, p.Name())
		}
		if p.Adaptive() != adaptive {
			t.Fatalf("%q adaptive = %v, want %v", name, p.Adaptive(), adaptive)
		}
	}
}

// TestLookupCanonicalises: lookups are case- and whitespace-insensitive,
// and an unknown name is an error that lists the five names.
func TestLookupCanonicalises(t *testing.T) {
	for _, name := range []string{"AHEFT", " aheft ", "Aheft"} {
		if p, err := Get(name); err != nil || p.Name() != "aheft" {
			t.Fatalf("Get(%q) = (%v, %v)", name, p, err)
		}
	}
	_, err := Get("nope")
	if err == nil {
		t.Fatal("Get accepted an unknown name")
	}
	const names = "aheft, heft, maxmin, minmin, sufferage"
	if got := strings.Join(Names(), ", "); got != names {
		t.Fatalf("Names() = %s, want %s", got, names)
	}
	if !strings.Contains(err.Error(), names) {
		t.Fatalf("unknown-name error %q does not list %s", err, names)
	}
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
