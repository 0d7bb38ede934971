package agents

import (
	"strconv"
	"strings"
)

// This file implements the tiny subset of "JavaScript execution" the human
// and smart-bot agents need: given the generated beacon script, find the
// beacon URL fetched by the genuine event handler (the function installed on
// the body's onmousemove/onkeypress attributes) and the URL of the
// script-load execution beacon. Real browsers execute the script; the
// simulated browser understands the generator's two string encodings
// (a plain single-quoted literal and String.fromCharCode(...)) and reads
// assignments by their tokens, not by the generator's whitespace.

// srcExprs returns the right-hand side of every `<ident>.src = <expr>`
// assignment in script, in order, however it is laid out: blanks around the
// single '=' are optional, and the expression runs to its ';' or to the end
// of the script.
func srcExprs(script string) []string {
	var out []string
	for {
		i := strings.Index(script, ".src")
		if i < 0 {
			return out
		}
		script = strings.TrimLeft(script[i+len(".src"):], " \t\r\n")
		if !strings.HasPrefix(script, "=") || strings.HasPrefix(script, "==") {
			continue // .srcset, a comparison, a read
		}
		var expr string
		expr, script, _ = strings.Cut(script[1:], ";")
		out = append(out, expr)
	}
}

// HandlerBeaconURL extracts the beacon URL assigned inside the named handler
// function (its text runs up to the next function declaration). It returns
// "" when the script does not contain the handler or the URL cannot be
// decoded.
func HandlerBeaconURL(script, handlerName string) string {
	_, body, found := strings.Cut(script, "function "+handlerName+"()")
	body, _, _ = strings.Cut(body, "function ")
	if exprs := srcExprs(body); found && len(exprs) > 0 {
		return decodeJSStringExpr(exprs[0])
	}
	return ""
}

// execBeaconURL extracts the script-load execution beacon URL: the one
// assignment whose URL expression goes on to append the '?ua=' report. It
// returns "" when the script carries no execution beacon.
func execBeaconURL(script string) string {
	for _, expr := range srcExprs(script) {
		if strings.Contains(expr, "?ua=") {
			return decodeJSStringExpr(expr)
		}
	}
	return ""
}

// execReport is the path a script's execution beacon requests when the
// engine running it reports agent — lower-cased with its spaces removed, as
// the injected script normalises navigator.userAgent — or "" when the script
// carries no execution beacon.
func execReport(script, agent string) string {
	exec := execBeaconURL(script)
	if exec == "" {
		return ""
	}
	return stripHost(exec) + "?ua=" + strings.ReplaceAll(strings.ToLower(agent), " ", "")
}

// decodeJSStringExpr decodes the leading operand of expr, either 'literal' or
// String.fromCharCode(65,66); whatever is concatenated after it is ignored.
func decodeJSStringExpr(expr string) string {
	expr = strings.TrimSpace(expr)
	if strings.HasPrefix(expr, "'") {
		end := strings.Index(expr[1:], "'")
		if end < 0 {
			return ""
		}
		return expr[1 : 1+end]
	}
	const fcc = "String.fromCharCode("
	if strings.HasPrefix(expr, fcc) {
		end := strings.Index(expr, ")")
		if end < 0 {
			return ""
		}
		var b strings.Builder
		for _, tok := range strings.Split(expr[len(fcc):end], ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || n < 0 || n > 0x10ffff {
				return ""
			}
			b.WriteByte(byte(n))
		}
		return b.String()
	}
	return ""
}

// AllBeaconURLs extracts every beacon URL assigned anywhere in the script —
// the behaviour of a robot that statically scrapes URLs out of scripts and
// fetches them blindly (and therefore hits decoys).
func AllBeaconURLs(script string) []string {
	var out []string
	for _, expr := range srcExprs(script) {
		if u := decodeJSStringExpr(expr); u != "" {
			out = append(out, u)
		}
	}
	return out
}
