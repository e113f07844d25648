package bench

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/xlate"
)

// TestManifestTimeoutRidesTheJobs pins the timeout_ms plumbing: a
// manifest entry's bound lands on the engine job (local enforcement)
// and on its JobSpec (remote enforcement), and its absence leaves both
// zero.
func TestManifestTimeoutRidesTheJobs(t *testing.T) {
	m, err := ParseManifest([]byte(`{
		"technologies": ["cntfet32"],
		"jobs": [
			{"name": "bounded", "workload": "bubble", "timeout_ms": 1500},
			{"name": "unbounded", "workload": "gemm"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := m.EngineJobs("", xlate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := jobs[0].Timeout; got != 1500*time.Millisecond {
		t.Errorf("bounded job Timeout = %v, want 1.5s", got)
	}
	spec := jobs[0].Spec.(*JobSpec)
	if spec.Job.TimeoutMS != 1500 {
		t.Errorf("bounded job spec TimeoutMS = %d, want 1500 (must ride the wire)", spec.Job.TimeoutMS)
	}
	if len(spec.Technologies) != 1 || spec.Technologies[0] != "cntfet32" {
		t.Errorf("spec technologies %v, want the manifest's", spec.Technologies)
	}
	if jobs[1].Timeout != 0 || jobs[1].Spec.(*JobSpec).Job.TimeoutMS != 0 {
		t.Errorf("unbounded job gained a timeout: %v / %d",
			jobs[1].Timeout, jobs[1].Spec.(*JobSpec).Job.TimeoutMS)
	}
}

// TestRunCtxStopsSpinningJobAtDeadline runs an RV32 spin loop, which
// exhausts no budget for seconds, under a 100 ms deadline: the simulators
// poll the context, so the job ends at the deadline rather than at the
// step budget.
func TestRunCtxStopsSpinningJobAtDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	spin := Workload{Name: "spin", Source: "li a0, 0\nspin: addi a0, a0, 1\nj spin", Iterations: 1}
	start := time.Now()
	_, err := RunCtx(ctx, spin, xlate.Options{})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("spinning job returned after %v, want under 2s", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error = %v, want one wrapping context.DeadlineExceeded", err)
	}
}
