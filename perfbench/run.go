package main

import (
	"context"
	"fmt"
	"os"
	"time"
)

// runEndToEnd is the untraced run: set-up (timed setupReps times), warm-up,
// then one closed-loop window whose rows are all verified.
func runEndToEnd(ctx context.Context, w *workload, o options) (*result, error) {
	c, err := newChecker(ctx, w)
	if err != nil {
		return nil, err
	}
	st, setups, warm, err := prepare(ctx, w, c)
	if err != nil {
		return nil, err
	}
	win := timeWindow(o.window, func(k int64) sample {
		return st.submit(ctx, c, w.at(k), k < w.prefix)
	})
	closeErr := st.close()
	verify(ctx, w, st.techs, win.samples)
	if closeErr != nil {
		return nil, closeErr
	}
	return endToEnd(w, setups, warm, win), nil
}

// endToEnd renders the end-to-end metrics of one window. Failures are
// counted, never dropped: a failed or mis-verified job makes the run
// incorrect and is reported in the result's failed count.
func endToEnd(w *workload, setups []float64, warm []sample, win window) *result {
	attempted, failed, firstBad := tally(win.samples, w.prefix)
	wa, wf, wbad := tally(warm, 0)
	attempted += wa
	failed += wf
	if firstBad == "" {
		firstBad = wbad
	}
	var lats []time.Duration
	for _, s := range win.samples {
		if s.inWindow {
			lats = append(lats, s.lat)
		}
	}
	cycles, _ := meanPrefixCycles(w, win.samples)
	if len(lats) < 100 && firstBad == "" {
		// p90 needs at least ten samples beyond it.
		firstBad = fmt.Sprintf("only %d latency samples in the window, want ≥ 100: run longer", len(lats))
	}
	if firstBad != "" {
		fmt.Fprintln(os.Stderr, "perfbench: verification failed:", firstBad)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d jobs in the window (%d latency samples), jobs_failed_frac %.4g\n",
		len(win.samples), len(lats), float64(failed)/float64(max(attempted, 1)))
	return &result{
		Correct:   firstBad == "",
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"jobs_per_s":         {rate(win.samples, win.dur), "1/s"},
			"job_ms_p50":         {quantile(lats, 0.50), "ms"},
			"job_ms_p90":         {quantile(lats, 0.90), "ms"},
			"setup_s":            {median(setups), "s"},
			"alloc_kb_per_job":   {win.allocKB / float64(max(len(lats), 1)), "KiB"},
			"rss_peak_mb":        {win.rssMB, "MB"},
			"sim_cycles_per_job": {cycles, "cycles"},
		},
	}
}
