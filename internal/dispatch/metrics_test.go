package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"turbulence/internal/wire"
)

// promLine is the shape every sample line of a /metrics scrape must take:
// a metric name, an optional one-label set, and a float value.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})? (-?(?:[0-9.eE+-]+|\+Inf|NaN))$`)

// scrapeBody parses one Prometheus text scrape strictly: every
// non-comment line must match the exposition grammar. Unlabeled samples
// land in flat; labeled ones in labeled[name][labelPart].
func scrapeBody(t *testing.T, body string) (flat map[string]float64, labeled map[string]map[string]float64) {
	t.Helper()
	flat = make(map[string]float64)
	labeled = make(map[string]map[string]float64)
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("empty /metrics body")
	}
	for _, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed exposition line: %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		if m[2] == "" {
			flat[m[1]] = v
			continue
		}
		if labeled[m[1]] == nil {
			labeled[m[1]] = make(map[string]float64)
		}
		labeled[m[1]][m[2]] = v
	}
	return flat, labeled
}

// scrapeURL fetches and parses base+/metrics, checking the content type.
func scrapeURL(t *testing.T, hc *http.Client, base string) (map[string]float64, map[string]map[string]float64) {
	t.Helper()
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return scrapeBody(t, string(body))
}

// checkLeaseBalance asserts the scrape-time ledger invariant: every lease
// ever granted is either still active, mid-delivery, or resolved by
// exactly one of the four outcome counters. Because the registry's
// snapshot lock is the coordinator's own mutex, this must hold on every
// scrape, however racy the sweep around it.
func checkLeaseBalance(t *testing.T, flat map[string]float64) {
	t.Helper()
	granted := flat["turbulence_dispatch_leases_granted_total"]
	resolved := flat["turbulence_dispatch_active_leases"] +
		flat["turbulence_dispatch_deliveries_inflight"] +
		flat["turbulence_dispatch_leases_completed_total"] +
		flat["turbulence_dispatch_leases_expired_total"] +
		flat["turbulence_dispatch_leases_rejected_total"] +
		flat["turbulence_dispatch_leases_lost_total"]
	if granted != resolved {
		t.Fatalf("lease ledger out of balance: granted %v != active+delivering+completed+expired+rejected+lost %v", granted, resolved)
	}
}

// TestMetricsEndToEnd runs a real dispatched sweep over a localhost HTTP
// server while scraping /metrics the whole time: every mid-sweep scrape
// must parse and balance its lease ledger, and the final scrape must show
// the worker-reported throughput — cells per worker summing to the plan,
// nonzero throughput gauges — plus the lifecycle events behind /events.
func TestMetricsEndToEnd(t *testing.T) {
	plan := testPlan(t)
	c, err := New(plan,
		WithShards(4),
		WithLeaseTTL(time.Minute),
		WithRetry(10*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	hc := srv.Client()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := Work(ctx, srv.URL,
				WithName(fmt.Sprintf("meter%d", i)),
				WithRunWorkers(1),
				WithRetry(10*time.Millisecond),
			); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	waitDone := make(chan struct{})
	var merged []wire.Run
	var waitErr error
	go func() {
		defer close(waitDone)
		merged, waitErr = c.Wait(ctx)
	}()

	// The mid-sweep scrape loop: a monitor polling the coordinator while
	// workers lease, run and ship. Each scrape is one consistent snapshot.
	scrapes := 0
	for scraping := true; scraping; {
		select {
		case <-waitDone:
			scraping = false
		case <-time.After(25 * time.Millisecond):
		}
		flat, _ := scrapeURL(t, hc, srv.URL)
		checkLeaseBalance(t, flat)
		scrapes++
	}
	wg.Wait()
	if waitErr != nil {
		t.Fatal(waitErr)
	}
	if len(merged) != plan.Size() {
		t.Fatalf("merged %d runs, want %d", len(merged), plan.Size())
	}
	t.Logf("scraped %d times mid-sweep", scrapes)

	flat, labeled := scrapeURL(t, hc, srv.URL)
	checkLeaseBalance(t, flat)
	if got := flat["turbulence_dispatch_leases_granted_total"]; got != 4 {
		t.Fatalf("granted %v leases, want 4", got)
	}
	if got := flat["turbulence_dispatch_leases_completed_total"]; got != 4 {
		t.Fatalf("completed %v leases, want 4", got)
	}
	if got := flat["turbulence_dispatch_shards_done"]; got != 4 {
		t.Fatalf("shards_done %v, want 4", got)
	}
	if got := flat["turbulence_dispatch_batch_cells_count"]; got != 4 {
		t.Fatalf("batch histogram count %v, want 4", got)
	}
	if got := flat["turbulence_dispatch_batch_cells_sum"]; got != float64(plan.Size()) {
		t.Fatalf("batch histogram sum %v, want %d", got, plan.Size())
	}
	// Worker self-measurement made it across the wire: the per-worker
	// cell counters sum to the plan, and every reporting worker carries a
	// nonzero throughput gauge.
	cells := 0.0
	for _, v := range labeled["turbulence_dispatch_worker_cells_total"] {
		cells += v
	}
	if cells != float64(plan.Size()) {
		t.Fatalf("worker-reported cells sum to %v, want %d (series: %v)", cells, plan.Size(), labeled["turbulence_dispatch_worker_cells_total"])
	}
	tp := labeled["turbulence_dispatch_worker_throughput_cells_per_second"]
	if len(tp) == 0 {
		t.Fatal("no per-worker throughput gauges")
	}
	for labels, v := range tp {
		if v <= 0 {
			t.Fatalf("throughput gauge {%s} = %v, want > 0", labels, v)
		}
	}

	// The lifecycle trace saw the same sweep: a lease and a complete per
	// shard, in a ring that counted everything it retained.
	resp, err := hc.Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events EventsReport
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	if events.Total != len(events.Events) {
		t.Fatalf("events total %d != retained %d with an unwrapped ring", events.Total, len(events.Events))
	}
	kinds := make(map[string]int)
	for _, ev := range events.Events {
		kinds[ev.Kind]++
		if ev.Kind == "lease" && (ev.Lease == "" || ev.Worker == "") {
			t.Fatalf("lease event missing lease id or worker: %+v", ev)
		}
	}
	if kinds["lease"] != 4 || kinds["complete"] != 4 {
		t.Fatalf("event kinds %v, want 4 lease + 4 complete", kinds)
	}
}

// TestStatusReportShape pins the GET /status JSON contract: operators
// script against these exact keys, so a rename is a breaking change.
func TestStatusReportShape(t *testing.T) {
	plan := testPlan(t)
	c, err := New(plan, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	// One strike on the books, so the failures detail renders too.
	g, _ := c.Lease("shaky")
	if err := c.Complete(g.LeaseID, nil); err == nil {
		t.Fatal("short batch accepted")
	}
	hc := &http.Client{Transport: loopbackTransport{h: c.Handler()}}
	resp, err := hc.Get("http://loopback/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"pending", "leased", "done", "shards", "epoch", "failures"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("/status missing key %q in %s", key, body)
		}
	}
	var failures []map[string]json.RawMessage
	if err := json.Unmarshal(raw["failures"], &failures); err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 {
		t.Fatalf("failures %s, want exactly the struck shard", raw["failures"])
	}
	for _, key := range []string{"shard", "strikes", "reason"} {
		if _, ok := failures[0][key]; !ok {
			t.Fatalf("failure entry missing key %q in %s", key, raw["failures"])
		}
	}
	var report StatusReport
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatal(err)
	}
	if report.Shards != 2 || report.Failures[0].Strikes != 1 || report.Failures[0].Reason == "" {
		t.Fatalf("status = %+v", report)
	}
	if report.Failures[0].Quarantined {
		t.Fatalf("one strike must not quarantine: %+v", report)
	}
}

// TestEventsRingLifecycle drives lease grants and a forced expiry through
// the queue verbs (no simulation) and pins what the /events ring records.
func TestEventsRingLifecycle(t *testing.T) {
	plan := testPlan(t)
	c, err := New(plan, WithShards(2), WithLeaseTTL(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := c.Lease("w1")
	c.mu.Lock()
	c.deadlines[g.LeaseID] = time.Time{} // the crash, observed
	c.mu.Unlock()
	g2, _ := c.Lease("w2") // sweeps the expiry, then grants
	if g2.LeaseID == "" {
		t.Fatalf("no lease after expiry: %+v", g2)
	}
	events := c.Events().Snapshot()
	var kinds []string
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
	}
	want := "lease,expire,lease"
	if got := strings.Join(kinds, ","); got != want {
		t.Fatalf("event kinds %q, want %q", got, want)
	}
	if events[1].Shard != g.Shard || events[1].Worker != "w1" {
		t.Fatalf("expire event %+v, want shard %d held by w1", events[1], g.Shard)
	}
	if c.Events().Total() != 3 {
		t.Fatalf("ring total %d, want 3", c.Events().Total())
	}
}

// TestWorkerStatsVersionSkew pins the stats side-channel's compatibility
// promise: an unknown snapshot version is dropped silently — the
// completion is still accepted — and only known-version stats feed the
// per-worker series. A same-version snapshot from an older worker build,
// carrying a field this coordinator no longer knows
// (testdata/worker_stats_prior.json), is counted: JSON decoding ignores
// unknown keys.
func TestWorkerStatsVersionSkew(t *testing.T) {
	plan := testPlan(t)
	c, err := New(plan, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	cl := Loopback(c)
	hc := &http.Client{Transport: loopbackTransport{h: c.Handler()}}

	g, _ := c.Lease("future")
	future := &wire.WorkerStats{Version: wire.StatsVersion + 1, Worker: "future", Shard: g.Shard, Cells: 99}
	if err := cl.CompleteStats(g.LeaseID, batchFor(plan, g.Shard, 3), future); err != nil {
		t.Fatalf("completion with future-version stats rejected: %v", err)
	}
	g2, _ := c.Lease("present")
	batch := batchFor(plan, g2.Shard, 3)
	present := &wire.WorkerStats{Version: wire.StatsVersion, Worker: "present", Shard: g2.Shard, Cells: len(batch), RunMillis: 500}
	if err := cl.CompleteStats(g2.LeaseID, batch, present); err != nil {
		t.Fatalf("completion with current-version stats rejected: %v", err)
	}
	prior, err := os.ReadFile("testdata/worker_stats_prior.json")
	if err != nil {
		t.Fatal(err)
	}
	var priorStats wire.WorkerStats
	if err := json.Unmarshal(prior, &priorStats); err != nil || priorStats.Version != wire.StatsVersion {
		t.Fatalf("prior stats fixture: version %d, err %v", priorStats.Version, err)
	}
	g3, _ := c.Lease(priorStats.Worker)
	older := batchFor(plan, g3.Shard, 3)
	if len(older) != priorStats.Cells {
		t.Fatalf("fixture reports %d cells, the leased shard has %d", priorStats.Cells, len(older))
	}
	gobRuns, err := encodeGobRuns(older)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, "http://loopback/complete", gobRuns)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(leaseHeader, g3.LeaseID)
	req.Header.Set(versionHeader, strconv.Itoa(wire.Version))
	req.Header.Set(statsHeader, strings.TrimSpace(string(prior)))
	ackResp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ackResp.Body.Close()
	if ackResp.StatusCode != http.StatusOK {
		t.Fatalf("completion with an unknown stats field answered %s", ackResp.Status)
	}
	if _, _, done := c.Counts(); done != 3 {
		t.Fatalf("%d shards done after three accepted completions, want 3", done)
	}

	resp, err := hc.Get("http://loopback/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	_, labeled := scrapeBody(t, string(body))
	cells := labeled["turbulence_dispatch_worker_cells_total"]
	if _, ok := cells[`worker="future"`]; ok {
		t.Fatalf("future-version stats were counted: %v", cells)
	}
	if got := cells[`worker="present"`]; got != float64(len(batch)) {
		t.Fatalf(`worker="present" cells = %v, want %d (series %v)`, got, len(batch), cells)
	}
	if got := cells[`worker="older"`]; got != float64(len(older)) {
		t.Fatalf(`worker="older" cells = %v, want %d (series %v)`, got, len(older), cells)
	}
	if got := labeled["turbulence_dispatch_worker_testbeds_reused_total"][`worker="older"`]; got != 1 {
		t.Fatalf(`worker="older" testbed reuses = %v, want 1`, got)
	}
	if got := labeled["turbulence_dispatch_worker_throughput_cells_per_second"][`worker="present"`]; got != float64(len(batch))/0.5 {
		t.Fatalf("throughput = %v, want %v", got, float64(len(batch))/0.5)
	}
}
