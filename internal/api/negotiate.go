package api

import (
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dataformat"
)

// MediaRange is one parsed entry of an Accept header.
type MediaRange struct {
	Type    string  // "application", or "*"
	Subtype string  // "json", "xml", or "*"
	Q       float64 // quality factor in [0,1]
	// pos preserves header order for stable tie-breaking.
	pos int
}

// specificity ranks exact types over subtype wildcards over full
// wildcards, per RFC 7231 §5.3.2.
func (m MediaRange) specificity() int {
	switch {
	case m.Type == "*":
		return 0
	case m.Subtype == "*":
		return 1
	default:
		return 2
	}
}

// matches reports whether the range covers the concrete media type.
func (m MediaRange) matches(mediaType string) bool {
	t, sub, _ := strings.Cut(mediaType, "/")
	if m.Type != "*" && !strings.EqualFold(m.Type, t) {
		return false
	}
	if m.Subtype != "*" && !strings.EqualFold(m.Subtype, sub) {
		return false
	}
	return true
}

// ParseAccept parses an Accept header into media ranges sorted by
// quality (desc), then specificity (desc), then header order. Malformed
// entries are skipped; q-values are clamped to [0,1] and default to 1.
func ParseAccept(header string) []MediaRange {
	var out []MediaRange
	for i, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ";")
		mt := strings.TrimSpace(fields[0])
		t, sub, ok := strings.Cut(mt, "/")
		if !ok || t == "" || sub == "" {
			continue
		}
		mr := MediaRange{Type: strings.ToLower(t), Subtype: strings.ToLower(sub), Q: 1, pos: i}
		for _, p := range fields[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || !strings.EqualFold(strings.TrimSpace(k), "q") {
				continue
			}
			q, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				continue // malformed q: keep default 1 per lenient parsing
			}
			mr.Q = min(1, max(0, q))
		}
		out = append(out, mr)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Q != out[j].Q {
			return out[i].Q > out[j].Q
		}
		if si, sj := out[i].specificity(), out[j].specificity(); si != sj {
			return si > sj
		}
		return out[i].pos < out[j].pos
	})
	return out
}

// NegotiateMediaType picks the best of the offered media types for the
// Accept header, with the first offer as the default. It returns "" if
// every offer is explicitly refused (q=0) and no wildcard allows one.
func NegotiateMediaType(header string, offers ...string) string {
	if len(offers) == 0 {
		return ""
	}
	ranges := ParseAccept(header)
	if len(ranges) == 0 {
		return offers[0] // no (parsable) preference: server default
	}
	bestOffer := ""
	bestQ := 0.0
	for _, offer := range offers {
		// The quality the client assigns an offer comes from the most
		// specific matching range (RFC 7231 §5.3.2).
		q, spec := 0.0, -1
		for _, mr := range ranges {
			if mr.matches(offer) && mr.specificity() > spec {
				q, spec = mr.Q, mr.specificity()
			}
		}
		// Earlier offers are the server's preference and win ties.
		if q > bestQ {
			bestOffer, bestQ = offer, q
		}
	}
	if bestQ == 0 {
		return ""
	}
	return bestOffer
}

// NegotiateEncoding picks the wire encoding for a common-format
// response from the request's Accept header. JSON is the
// infrastructure's primary encoding and wins ties, wildcards, and
// absent/unparsable headers; XML is only chosen when the client
// genuinely prefers it (this subsumes the old substring match, which
// mis-fired on entries like "application/xml;q=0").
func NegotiateEncoding(r *http.Request) dataformat.Encoding {
	offer := NegotiateMediaType(r.Header.Get("Accept"),
		"application/json", "application/xml", "text/xml")
	if offer == "application/xml" || offer == "text/xml" {
		return dataformat.XML
	}
	return dataformat.JSON
}

// WriteDoc writes a common-format document honouring content
// negotiation; it is the response half of the Doc-returning adapters.
func WriteDoc(w http.ResponseWriter, r *http.Request, doc *dataformat.Document) {
	enc := NegotiateEncoding(r)
	body, err := doc.Encode(enc)
	if err != nil {
		WriteError(w, r, Internal(err))
		return
	}
	w.Header().Set("Content-Type", enc.ContentType())
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// NotModified is the server half of a conditional GET (RFC 9110 §13):
// it labels the response with etag and, when the request's
// If-None-Match names that tag (weak comparison; "*" matches any),
// answers 304 and reports true: the caller then builds no body.
func NotModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	w.Header().Set("ETag", etag)
	for _, held := range strings.Split(r.Header.Get("If-None-Match"), ",") {
		held = strings.TrimSpace(held)
		if held == "*" || (held != "" && strings.TrimPrefix(held, "W/") == strings.TrimPrefix(etag, "W/")) {
			w.WriteHeader(http.StatusNotModified)
			return true
		}
	}
	return false
}
