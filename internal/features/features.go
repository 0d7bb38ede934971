// Package features defines the 12 per-session attributes of Table 2, the
// input representation for the machine-learning detector of Section 4.2.
// Each attribute is the percentage (expressed as a fraction in [0, 1]) of a
// session's requests with a given property, computed over the first n
// requests of the session (the paper builds classifiers at n = 20, 40, ...,
// 160).
//
// The package is a leaf: it holds only the vector type, the attribute
// indices and the labelled-example container, so that both the session layer
// (which maintains each session's vector incrementally; see
// session.Counts.Vector) and the decision layer (internal/detect, which
// feeds vectors to the learned model) can depend on it without cycles.
package features

import "fmt"

// Index of each attribute in a Vector, in the order of Table 2.
const (
	HeadPct int = iota
	HTMLPct
	ImagePct
	CGIPct
	ReferrerPct
	UnseenReferrerPct
	EmbeddedObjPct
	LinkFollowingPct
	Resp2xxPct
	Resp3xxPct
	Resp4xxPct
	FaviconPct

	// NumAttributes is the number of attributes in a Vector.
	NumAttributes = 12
)

// Names lists the attribute names in Table 2 order.
var Names = [NumAttributes]string{
	"HEAD %",
	"HTML %",
	"IMAGE %",
	"CGI %",
	"REFERRER %",
	"UNSEEN REFERRER %",
	"EMBEDDED OBJ %",
	"LINK FOLLOWING %",
	"RESPCODE 2XX %",
	"RESPCODE 3XX %",
	"RESPCODE 4XX %",
	"FAVICON %",
}

// Descriptions explains each attribute, mirroring Table 2.
var Descriptions = [NumAttributes]string{
	"% of HEAD commands",
	"% of HTML requests",
	"% of Image(content type=image/*)",
	"% of CGI requests",
	"% of requests with referrer",
	"% of requests with unvisited referrer",
	"% of embedded object requests",
	"% of link requests",
	"% of response code 2XX",
	"% of response code 3XX",
	"% of response code 4XX",
	"% of favicon.ico requests",
}

// Vector is one session's attribute vector.
type Vector [NumAttributes]float64

// Example is a labelled attribute vector used for training and evaluation.
type Example struct {
	// X is the attribute vector.
	X Vector
	// Human is the ground-truth label (true = human session).
	Human bool
}

// String renders the vector with attribute names, for debugging and reports.
func (v Vector) String() string {
	out := ""
	for i, val := range v {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s=%.3f", Names[i], val)
	}
	return out
}
