package experiments

import (
	"fmt"
	"strings"

	"botdetect/internal/detect/rules"
	"botdetect/internal/metrics"
	"botdetect/internal/session"
	"botdetect/internal/workload"
)

// Figure2Result is the detection-latency study: for each detection signal,
// the CDF of the number of (client-generated) requests the session had made
// when the signal first fired.
type Figure2Result struct {
	// MouseCDF, CSSCDF, JSFileCDF are the three curves of Figure 2.
	MouseCDF  *metrics.CDF
	CSSCDF    *metrics.CDF
	JSFileCDF *metrics.CDF
	// Key quantiles quoted in the paper.
	Mouse80, Mouse95 float64 // paper: 20 and 57 requests
	CSS95, CSS99     float64 // paper: 19 and 48 requests
	// Series are plot-ready curves.
	Series []metrics.Series
}

// Figure2 regenerates the CDFs of requests needed to detect humans. Human
// sessions are made long enough that the latency distribution has a tail, as
// CoDeeN's did.
func Figure2(scale Scale) Figure2Result {
	scale = scale.withDefaults()
	res := workload.Run(workload.Config{
		Sessions:   scale.Sessions,
		Seed:       scale.Seed ^ 0xf2,
		Mix:        workload.CoDeeNMix(),
		HumanPages: 18,
		// A per-page input-event probability well below one stretches the
		// detection latency over several page views, reproducing the tail the
		// paper observed (80% of humans within 20 requests, 95% within 57).
		HumanMouseProbability: 0.35,
	})
	return figure2From(res)
}

func figure2From(res *workload.Result) Figure2Result {
	latencies := rules.DetectionLatencies(res.Snapshots(),
		session.SignalMouse, session.SignalCSS, session.SignalJSFile)
	out := Figure2Result{
		MouseCDF:  latencies[session.SignalMouse],
		CSSCDF:    latencies[session.SignalCSS],
		JSFileCDF: latencies[session.SignalJSFile],
	}
	out.Mouse80 = out.MouseCDF.Quantile(0.80)
	out.Mouse95 = out.MouseCDF.Quantile(0.95)
	out.CSS95 = out.CSSCDF.Quantile(0.95)
	out.CSS99 = out.CSSCDF.Quantile(0.99)
	out.Series = []metrics.Series{
		{Name: "CSS files", Points: out.CSSCDF.Points(25)},
		{Name: "Javascript files", Points: out.JSFileCDF.Points(25)},
		{Name: "Mouse events", Points: out.MouseCDF.Points(25)},
	}
	return out
}

// Format renders the result as text.
func (r Figure2Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 2 — CDF of requests needed to detect humans\n")
	fmt.Fprintf(&sb, "  mouse events: 80%% detected within %.0f requests (paper 20), 95%% within %.0f (paper 57)\n", r.Mouse80, r.Mouse95)
	fmt.Fprintf(&sb, "  CSS files:    95%% detected within %.0f requests (paper 19), 99%% within %.0f (paper 48)\n", r.CSS95, r.CSS99)
	fmt.Fprintf(&sb, "  samples: mouse=%d css=%d js=%d\n\n", r.MouseCDF.Len(), r.CSSCDF.Len(), r.JSFileCDF.Len())
	for _, s := range r.Series {
		sb.WriteString(s.Format())
		sb.WriteString("\n")
	}
	return sb.String()
}
