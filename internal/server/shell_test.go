package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"pipecache/internal/obs"
)

// TestETagMatch pins If-None-Match to RFC 9110 §13.1.2's weak
// comparison: a wildcard, or any listed tag whose opaque tag equals the
// served one, strong or weak (W/) on either side, revalidates.
func TestETagMatch(t *testing.T) {
	const tag = `"0123456789abcdef0123456789abcdef"`
	for _, c := range []struct {
		header string
		want   bool
	}{
		{`*`, true},
		{` * `, true},
		{tag, true},
		{`W/` + tag, true},
		{`"other", ` + tag, true},
		{`"other",W/` + tag + `, "more"`, true},
		{`  W/` + tag + `  `, true},
		{`"other"`, false},
		{`W/"other", "more"`, false},
		{`0123456789abcdef0123456789abcdef`, false}, // unquoted
		{`w/` + tag, false},                         // the weak prefix is case-sensitive
		{`"*"`, false},
		{``, false},
	} {
		if got := etagMatch(c.header, tag); got != c.want {
			t.Errorf("etagMatch(%q) = %v, want %v", c.header, got, c.want)
		}
		if got := etagMatch(c.header, "W/"+tag); got != c.want {
			t.Errorf("etagMatch(%q) against the weak tag = %v, want %v", c.header, got, c.want)
		}
	}
}

// TestWriteBodyWeakRevalidation: WriteBody serves the strong tag of the
// body, and answers its weak form, as a browser or cache presents a tag it
// downgraded, with a 304 carrying the same strong tag and no body.
func TestWriteBodyWeakRevalidation(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewShell("server", reg, io.Discard, 0)
	body := []byte(`{"cpi":1.5}`)
	tag := strongETag(body)

	for _, c := range []struct {
		inm        string
		wantStatus int
		wantBody   string
	}{
		{"", http.StatusOK, string(body) + "\n"},
		{tag, http.StatusNotModified, ""},
		{"W/" + tag, http.StatusNotModified, ""},
		{`W/"stale", ` + tag, http.StatusNotModified, ""},
		{`W/"stale"`, http.StatusOK, string(body) + "\n"},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/simulate", nil)
		if c.inm != "" {
			r.Header.Set("If-None-Match", c.inm)
		}
		w := httptest.NewRecorder()
		h.WriteBody(w, r, body, "hit")
		if w.Code != c.wantStatus || w.Body.String() != c.wantBody {
			t.Errorf("If-None-Match %q: status %d body %q, want %d %q",
				c.inm, w.Code, w.Body.String(), c.wantStatus, c.wantBody)
		}
		if got := w.Header().Get("ETag"); got != tag {
			t.Errorf("If-None-Match %q: served ETag %q, want the strong tag %q", c.inm, got, tag)
		}
	}
	if got := reg.Snapshot().Counters["server.requests_not_modified"]; got != 3 {
		t.Errorf("requests_not_modified = %d, want 3", got)
	}
}
