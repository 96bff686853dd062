// The fleet status endpoint: one JSON document (or a minimal HTML
// dashboard) describing the campaign's live shape — shard queue,
// per-worker liveness and throughput, and the coverage growth curve.
// Status is observability over the same state the gauges export; it is
// never consulted by the protocol.
package fleet

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Status is the /status document.
type Status struct {
	// Campaign is the fleet-wide campaign id (the event log's key).
	Campaign string `json:"campaign"`
	Programs int    `json:"programs"`
	Merged   int    `json:"merged"`
	// UptimeSeconds is the coordinator's age.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// RatePerSec is aggregate merged throughput since start.
	RatePerSec float64 `json:"rate_per_sec"`

	ShardsPending int `json:"shards_pending"`
	ShardsLeased  int `json:"shards_leased"`
	ShardsDone    int `json:"shards_done"`

	Workers []WorkerStatus `json:"workers"`

	// CoverageSites/CoverageHits describe the merged campaign coverage
	// union; Curve is one point per spliced shard. All zero/empty when
	// the campaign runs without coverage.
	CoverageSites int             `json:"coverage_sites,omitempty"`
	CoverageHits  uint64          `json:"coverage_hits,omitempty"`
	Curve         []CoveragePoint `json:"coverage_curve,omitempty"`
}

// WorkerStatus is one worker's row in the /status document.
type WorkerStatus struct {
	ID   string `json:"id"`
	Host string `json:"host"`
	// Live is whether the worker was seen within two lease TTLs.
	Live         bool    `json:"live"`
	LastSeenSecs float64 `json:"last_seen_seconds_ago"`
	// Shards/Verdicts count the worker's accepted uploads; RatePerSec
	// is its accepted-verdict throughput since registration.
	Shards     int     `json:"shards"`
	Verdicts   int     `json:"verdicts"`
	RatePerSec float64 `json:"rate_per_sec"`
	// SpoolDepth is the worker's last snapshot-reported unacknowledged
	// spool size.
	SpoolDepth int `json:"spool_depth"`
}

// status assembles the document under c.mu.
func (c *Coordinator) status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	st := Status{
		Campaign:      campaignID([]byte(c.fingerprint)),
		Programs:      c.camp.Programs,
		Merged:        c.seq.Len(),
		UptimeSeconds: now.Sub(c.start).Seconds(),
	}
	if st.UptimeSeconds > 0 {
		st.RatePerSec = float64(st.Merged) / st.UptimeSeconds
	}
	for _, s := range c.shards {
		switch s.state {
		case shardPending:
			st.ShardsPending++
		case shardLeased:
			st.ShardsLeased++
		case shardDone:
			st.ShardsDone++
		}
	}
	cutoff := now.Add(-2 * c.leaseTTL)
	for _, w := range c.workers {
		ws := WorkerStatus{
			ID:           w.id,
			Host:         w.host,
			Live:         w.lastSeen.After(cutoff),
			LastSeenSecs: now.Sub(w.lastSeen).Seconds(),
			Shards:       w.shards,
			Verdicts:     w.verdicts,
			SpoolDepth:   w.spoolDepth,
		}
		if age := now.Sub(w.firstSeen).Seconds(); age > 0 {
			ws.RatePerSec = float64(w.verdicts) / age
		}
		st.Workers = append(st.Workers, ws)
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })
	if cov := c.camp.Coverage; cov != nil {
		st.CoverageSites = cov.Sites()
		st.CoverageHits = cov.Total()
		st.Curve = append([]CoveragePoint(nil), c.covCurve...)
	}
	return st
}

// statusPage is the minimal HTML rendering of the same document: a
// dashboard for a human with a browser, nothing more.
var statusPage = template.Must(template.New("status").Parse(`<!doctype html>
<title>ratte fleet {{.Campaign}}</title>
<style>body{font:14px monospace;margin:2em}table{border-collapse:collapse}
td,th{border:1px solid #999;padding:2px 8px;text-align:right}th{background:#eee}
td:first-child,th:first-child{text-align:left}</style>
<h1>campaign {{.Campaign}}</h1>
<p>{{.Merged}}/{{.Programs}} seeds merged &middot; {{printf "%.1f" .RatePerSec}}/sec
&middot; shards: {{.ShardsDone}} done, {{.ShardsLeased}} leased, {{.ShardsPending}} pending</p>
{{if .CoverageSites}}<p>coverage: {{.CoverageSites}} sites, {{.CoverageHits}} hits</p>
<p>growth: {{range .Curve}}{{.Seeds}}&rarr;{{.Sites}} {{end}}</p>{{end}}
<table><tr><th>worker</th><th>host</th><th>live</th><th>seen ago</th>
<th>shards</th><th>verdicts</th><th>rate/s</th><th>spool</th></tr>
{{range .Workers}}<tr><td>{{.ID}}</td><td>{{.Host}}</td><td>{{if .Live}}yes{{else}}no{{end}}</td>
<td>{{printf "%.1fs" .LastSeenSecs}}</td><td>{{.Shards}}</td><td>{{.Verdicts}}</td>
<td>{{printf "%.1f" .RatePerSec}}</td><td>{{.SpoolDepth}}</td></tr>{{end}}</table>
`))

// handleStatus serves the fleet status document: JSON by default, the
// HTML dashboard with ?format=html or an Accept header preferring
// text/html. Like /metrics, it is deliberately not token-gated.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := c.status()
	wantHTML := r.URL.Query().Get("format") == "html" ||
		strings.Contains(r.Header.Get("Accept"), "text/html")
	if wantHTML {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := statusPage.Execute(w, st); err != nil {
			http.Error(w, fmt.Sprintf("fleet: status render: %v", err), http.StatusInternalServerError)
		}
		return
	}
	writeJSON(w, st)
}
