package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/remote"
)

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestCacheEndpointsRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Cache: true})

	// A cold lookup answers one found:false row per key.
	resp := postJSON(t, ts.URL+"/v1/cache/lookup", `{"keys":["k1","k2"]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lookup status %d, want 200", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	rows := 0
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var row struct {
			Key   string `json:"key"`
			Found bool   `json:"found"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("row %q: %v", sc.Text(), err)
		}
		if row.Found {
			t.Fatalf("cold lookup found %q", row.Key)
		}
		rows++
	}
	if rows != 2 {
		t.Fatalf("cold lookup returned %d rows, want 2", rows)
	}

	// A fill is acknowledged with the stored count, skipping unusable
	// entries (blank key, non-JSON value) without failing the request.
	resp = postJSON(t, ts.URL+"/v1/cache/fill",
		`{"entries":[{"key":"k1","value":{"ok":true}},{"key":"","value":{}},{"key":"k3"}]}`)
	defer resp.Body.Close()
	var ack struct {
		Stored int `json:"stored"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || ack.Stored != 1 {
		t.Fatalf("fill status %d stored %d, want 200 / 1", resp.StatusCode, ack.Stored)
	}

	// The filled key now answers from the local store.
	resp = postJSON(t, ts.URL+"/v1/cache/lookup", `{"keys":["k1"]}`)
	defer resp.Body.Close()
	var row struct {
		Key   string          `json:"key"`
		Found bool            `json:"found"`
		Value json.RawMessage `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&row); err != nil {
		t.Fatal(err)
	}
	if !row.Found || !bytes.Contains(row.Value, []byte("true")) {
		t.Fatalf("warm lookup row %+v, want the filled value", row)
	}
}

func TestCacheEndpointsAbsentWithoutCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/v1/cache/lookup", "/v1/cache/fill"} {
		resp := postJSON(t, ts.URL+path, `{}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status %d, want 404 on a cache-less instance", path, resp.StatusCode)
		}
	}
}

func TestCacheRequestLimitsAndMethods(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Cache: true})

	keys := make([]string, remote.MaxCacheKeys+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("\"k%d\"", i)
	}
	resp := postJSON(t, ts.URL+"/v1/cache/lookup", `{"keys":[`+strings.Join(keys, ",")+`]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversize lookup status %d, want 400", resp.StatusCode)
	}

	for _, path := range []string{"/v1/cache/lookup", "/v1/cache/fill"} {
		getResp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		getResp.Body.Close()
		if getResp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s status %d, want 405", path, getResp.StatusCode)
		}
	}
}

// TestFleetCacheSecondRunHits is the wire-level acceptance pin: two
// serve instances pointed at each other as cache peers; a suite run on
// one seeds the tier, so the same manifest run on the OTHER answers
// from the cache (nonzero hits in its /v1/stats) with identical rows.
func TestFleetCacheSecondRunHits(t *testing.T) {
	sA, tsA := newTestServer(t, Config{Workers: 2, Cache: true})
	// B joins with A as its cache peer; A is not re-pointed at B, which
	// also exercises the asymmetric (one-way) fleet shape.
	_, tsB := newTestServer(t, Config{Workers: 2, Cache: true, CachePeers: []string{tsA.URL}})

	manifest := `{"technologies":["cntfet32"],"jobs":[
		{"name":"bubble","workload":"bubble"},
		{"name":"gemm","workload":"gemm"}]}`

	suiteRowsOf := func(ts string) map[string]string {
		resp := postJSON(t, ts+"/v1/suite", manifest)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("suite status %d", resp.StatusCode)
		}
		rows := map[string]string{}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var jr bench.JobReport
			if err := json.Unmarshal(line, &jr); err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
			if !jr.OK {
				t.Fatalf("job %s failed: %s", jr.Name, jr.Error)
			}
			// Normalize the run-local fields the cache scrubs by design.
			jr.ElapsedMS, jr.Worker = 0, 0
			norm, _ := json.Marshal(jr)
			rows[jr.Name] = string(norm)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return rows
	}

	cold := suiteRowsOf(tsA.URL)
	if len(cold) != 2 {
		t.Fatalf("cold run returned %d rows, want 2", len(cold))
	}
	// A's dispatch path stored through its tier; its local store now
	// holds both rows.
	if st := sA.cache.Stats(); st.Puts != 2 {
		t.Fatalf("instance A cache stats %+v, want 2 puts", st)
	}

	warm := suiteRowsOf(tsB.URL)
	for name, row := range cold {
		if warm[name] != row {
			t.Fatalf("job %s diverged between fleet runs:\ncold %s\nwarm %s", name, row, warm[name])
		}
	}

	// B's stats must show the cache answering: tier hits, via the peer.
	resp, err := http.Get(tsB.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Cache struct {
			Results *bench.ResultCacheReport `json:"results"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Results == nil {
		t.Fatal("stats carry no results-cache section")
	}
	if stats.Cache.Results.Hits != 2 || stats.Cache.Results.PeerHits != 2 {
		t.Fatalf("warm stats %+v, want 2 hits / 2 peer hits", stats.Cache.Results)
	}

	// And B's warm jobs rode the cache, not a worker.
	respJobs := postJSON(t, tsB.URL+"/v1/suite", manifest)
	defer respJobs.Body.Close()
	sc := bufio.NewScanner(respJobs.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var jr bench.JobReport
		if err := json.Unmarshal(line, &jr); err != nil {
			t.Fatal(err)
		}
		if jr.Worker != -1 {
			t.Fatalf("warm job %s ran on worker %d, want -1 (cache hit)", jr.Name, jr.Worker)
		}
	}
}
