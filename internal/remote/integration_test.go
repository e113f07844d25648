package remote_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/gate"
	"repro/internal/remote"
	"repro/internal/serve"
	"repro/internal/xlate"
)

// suiteRows runs the full example-manifest suite on ev and renders each
// result as a sorted slice of marshalled report rows with the two
// run-volatile fields (elapsed, worker index) normalised away —
// everything that is a function of the evaluation itself stays.
func suiteRows(t *testing.T, ev engine.Evaluator, m *bench.Manifest, techs []*gate.Technology) []string {
	t.Helper()
	jobs, err := m.EngineJobs("", xlate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := ev.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.ID, r.Err)
		}
		jr := bench.JobReportOf(r, techs)
		jr.ElapsedMS = 0
		jr.Worker = 0
		raw, err := json.Marshal(jr)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, string(raw))
	}
	sort.Strings(rows)
	return rows
}

// TestMixedLocalRemoteFleetMatchesLocal is the acceptance pin of the
// Evaluator redesign: a Balancer mixing one local Engine with one
// internal/remote client (backed by an in-process httptest art9-serve)
// must yield byte-identical sorted suite results to a purely local run.
func TestMixedLocalRemoteFleetMatchesLocal(t *testing.T) {
	m := &bench.Manifest{
		Technologies: []string{"cntfet32", "stratixv"},
		Jobs: []bench.ManifestJob{
			{Name: "bubble", Workload: "bubble"},
			{Name: "gemm", Workload: "gemm"},
			{Name: "sobel", Workload: "sobel"},
			{Name: "dhrystone", Workload: "dhrystone"},
			{Name: "strsearch", Workload: "strsearch"},
			{Name: "inline", Source: "li a0, 21\nadd a0, a0, a0\nebreak", Iterations: 2},
		},
	}
	techs, err := m.ResolveTechnologies()
	if err != nil {
		t.Fatal(err)
	}

	// The peer: a real art9-serve over httptest.
	peerSrv, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	peerTS := httptest.NewServer(peerSrv.Handler())
	defer func() {
		peerTS.Close()
		peerSrv.Close()
	}()
	client, err := remote.New(peerTS.URL)
	if err != nil {
		t.Fatal(err)
	}

	mixed := engine.NewBalancer(engine.BalancerOptions{HealthInterval: -1},
		engine.New(engine.Options{Workers: 2}), client)
	defer mixed.Close()
	local := engine.New(engine.Options{Workers: 2})
	defer local.Close()

	mixedRows := suiteRows(t, mixed, m, techs)
	localRows := suiteRows(t, local, m, techs)

	if len(mixedRows) != len(m.Jobs) {
		t.Fatalf("mixed run yielded %d rows, want %d", len(mixedRows), len(m.Jobs))
	}
	for i := range localRows {
		if !bytes.Equal([]byte(mixedRows[i]), []byte(localRows[i])) {
			t.Errorf("sorted row %d differs:\n mixed: %s\n local: %s", i, mixedRows[i], localRows[i])
		}
	}

	// The remote backend must actually have carried work — the equality
	// above would also hold for a front that quietly ran everything
	// locally.
	if st := client.LocalStats(); st.Completed < 1 {
		t.Errorf("remote client stats %+v, want at least 1 job completed via the peer", st)
	}
}

// TestMixedFleetStream checks the streaming path through the same mixed
// topology: every job resolves exactly once, remote rows pass through
// as *bench.JobReport values, local rows as *bench.Outcome.
func TestMixedFleetStream(t *testing.T) {
	peerSrv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	peerTS := httptest.NewServer(peerSrv.Handler())
	defer func() {
		peerTS.Close()
		peerSrv.Close()
	}()
	client, err := remote.New(peerTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	// Width 1 matches the peer's dispatch cap to the local pool, so the
	// two backends alternate and both carry work.
	mixed := engine.NewBalancer(engine.BalancerOptions{HealthInterval: -1, Width: 1},
		engine.New(engine.Options{Workers: 1}), client)
	defer mixed.Close()

	m := &bench.Manifest{Jobs: []bench.ManifestJob{
		{Name: "bubble", Workload: "bubble"},
		{Name: "gemm", Workload: "gemm"},
		{Name: "sobel", Workload: "sobel"},
		{Name: "strsearch", Workload: "strsearch"},
	}}
	jobs, err := m.EngineJobs("", xlate.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var outcomes, reports int
	seen := map[string]bool{}
	for r := range mixed.Stream(context.Background(), jobs) {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.ID, r.Err)
		}
		if seen[r.ID] {
			t.Fatalf("job %s delivered twice", r.ID)
		}
		seen[r.ID] = true
		switch r.Value.(type) {
		case *bench.Outcome:
			outcomes++
		case *bench.JobReport:
			reports++
		default:
			t.Fatalf("job %s: value %T, want *Outcome or *JobReport", r.ID, r.Value)
		}
	}
	if outcomes < 1 || reports < 1 || outcomes+reports != len(jobs) {
		t.Errorf("stream saw %d local outcomes and %d remote reports, want at least 1 each and %d in total",
			outcomes, reports, len(jobs))
	}
}

// TestBalancerFleetSurvivesDeadPeer is the fleet-level acceptance pin
// of the failover scheduler: a Balancer fronting one live remote peer
// (a real httptest art9-serve), one peer that is already dead, and one
// local engine must complete the whole manifest with sorted rows
// byte-identical to a purely local run — the dead peer's jobs re-run on
// the survivors — and must record the failovers it performed.
func TestBalancerFleetSurvivesDeadPeer(t *testing.T) {
	m := &bench.Manifest{
		Technologies: []string{"cntfet32"},
		Jobs: []bench.ManifestJob{
			{Name: "bubble", Workload: "bubble"},
			{Name: "gemm", Workload: "gemm"},
			{Name: "sobel", Workload: "sobel"},
			{Name: "dhrystone", Workload: "dhrystone"},
			{Name: "strsearch", Workload: "strsearch"},
			{Name: "inline", Source: "li a0, 21\nadd a0, a0, a0\nebreak", Iterations: 2},
		},
	}
	techs, err := m.ResolveTechnologies()
	if err != nil {
		t.Fatal(err)
	}

	peerSrv, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	peerTS := httptest.NewServer(peerSrv.Handler())
	defer func() {
		peerTS.Close()
		peerSrv.Close()
	}()
	live, err := remote.New(peerTS.URL)
	if err != nil {
		t.Fatal(err)
	}

	// A peer that died before the batch: grab a URL, then close it.
	deadTS := httptest.NewServer(nil)
	deadURL := deadTS.URL
	deadTS.Close()
	dead, err := remote.New(deadURL, remote.WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}

	fleet := engine.NewBalancer(engine.BalancerOptions{HealthInterval: -1},
		live, dead, engine.New(engine.Options{Workers: 2}))
	defer fleet.Close()
	local := engine.New(engine.Options{Workers: 2})
	defer local.Close()

	fleetRows := suiteRows(t, fleet, m, techs)
	localRows := suiteRows(t, local, m, techs)

	if len(fleetRows) != len(m.Jobs) {
		t.Fatalf("fleet run yielded %d rows, want %d", len(fleetRows), len(m.Jobs))
	}
	for i := range localRows {
		if !bytes.Equal([]byte(fleetRows[i]), []byte(localRows[i])) {
			t.Errorf("sorted row %d differs:\n fleet: %s\n local: %s", i, fleetRows[i], localRows[i])
		}
	}

	var deadHealth engine.BackendHealth
	for _, h := range fleet.Health() {
		if h.Name == deadURL {
			deadHealth = h
		}
	}
	if deadHealth.Name == "" {
		t.Fatal("dead peer missing from the balancer's health scorecards")
	}
	if deadHealth.Failovers == 0 {
		t.Error("no failovers recorded for the dead peer, though the suite completed")
	}
	if deadHealth.Healthy {
		t.Error("dead peer still marked healthy after failing its jobs")
	}
	if fleet.Retries() == 0 {
		t.Error("balancer recorded no retries")
	}
}
