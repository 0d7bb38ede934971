package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"strings"
)

// scrapeMetrics fetches the admin listener's Prometheus text and returns the
// samples keyed by their full series name, labels included, exactly as
// printed (e.g. `botdetect_load_shed_total{mode="degraded"}`).
func scrapeMetrics(admin *wireConn, prefix string) (map[string]float64, error) {
	resp, err := admin.get(prefix+"/metrics", nil, "")
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	if resp.status != 200 {
		return nil, fmt.Errorf("scrape metrics: status %d", resp.status)
	}
	out := make(map[string]float64)
	parseMetrics(string(resp.body), out)
	return out, nil
}

// parseMetrics reads Prometheus text-format samples into out.
func parseMetrics(text string, out map[string]float64) {
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[line[:sp]] = v
		}
	}
}

// sumSeries adds up every series of one metric family, whatever its labels.
func sumSeries(m map[string]float64, family string) float64 { return sumWhere(m, family, "") }

// sumWhere adds up the series of one metric family whose label set contains
// label (e.g. `outcome="origin"`); engines that share a registry differ only
// in a node label, so this sums over nodes.
func sumWhere(m map[string]float64, family, label string) float64 {
	var total float64
	for k, v := range m {
		if (k == family || strings.HasPrefix(k, family+"{")) && strings.Contains(k, label) {
			total += v
		}
	}
	return total
}

// sessionVerdict asks the admin listener how the engine currently judges one
// session; it returns the verdict class ("human", "robot", "undecided").
func sessionVerdict(admin *wireConn, prefix, ip, ua string) (string, error) {
	path := prefix + "/admin/session?ip=" + url.QueryEscape(ip) + "&ua=" + url.QueryEscape(ua)
	resp, err := admin.get(path, nil, "")
	if err != nil {
		return "", fmt.Errorf("admin session: %w", err)
	}
	if resp.status != 200 {
		return "", fmt.Errorf("admin session %s: status %d", ip, resp.status)
	}
	var view struct {
		Verdict struct {
			Class string `json:"class"`
		} `json:"verdict"`
	}
	if err := json.Unmarshal(resp.body, &view); err != nil {
		return "", fmt.Errorf("admin session %s: %w", ip, err)
	}
	return view.Verdict.Class, nil
}
