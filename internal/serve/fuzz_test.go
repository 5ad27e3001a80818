package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobSpec drives artcd's submission path — the strict decode plus
// normalize — with arbitrary documents. `go test` runs the seed corpus;
// `go test -fuzz=FuzzJobSpec ./internal/serve` explores. Invariants:
// no panics; an accepted spec re-encodes, decodes, and normalizes to
// the same value (normalize is idempotent on its own output); and no
// accepted spec carries a field owned by another kind.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"replay","trace":"sha256:00"}`,
		`{"kind":"export","trace":"sha256:00","snapshot":"sha256:01","format":"strace","target":"osx-hfs+-hdd","method":"temporal","shards":4}`,
		`{"kind":"chaos","trace":"sha256:00","seed":7,"seeds":3,"verify":true}`,
		`{"kind":"sleep","ms":5}`,
		`{"kind":"sleep","trace":"sha256:00"}`,
		`{"kind":"replay","trace":"sha256:00","seeds":4}`,
		`{"kind":"replay","trace":"sha256:00","ms":5}`,
		`{"kind":"replay","trace":"sha256:00","shards":2,"slice_actions":5}`,
		`{"kind":"export","trace":"sha256:00","warm":true,"no_samples":true}`,
		`{"kind":"replay","trace":"sha256:00","target":"linux-ext4-ssd-noop-extra"}`,
		`{"kind":"chaos","trace":"x","seeds":-1}`,
		`{"kind":"replay"}{"kind":"chaos"}`,
		`[]`,
		`null`,
	} {
		f.Add(seed)
	}
	s := &Server{cfg: Config{EnableTestKinds: true}}
	f.Fuzz(func(t *testing.T, doc string) {
		req, err := decodeJobRequest(bytes.NewReader([]byte(doc)))
		if err != nil || s.normalize(&req) != "" {
			return
		}
		if req.Kind != "chaos" && (req.Seed != 0 || req.Seeds != 0 || req.Verify) {
			t.Fatalf("chaos fields accepted on kind %q: %+v", req.Kind, req)
		}
		if req.Kind != "sleep" && req.Ms != 0 {
			t.Fatalf("ms accepted on kind %q: %+v", req.Kind, req)
		}
		if req.Kind == "sleep" && (req != jobRequest{Kind: "sleep", Ms: req.Ms}) {
			t.Fatalf("non-sleep fields accepted on kind sleep: %+v", req)
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := decodeJobRequest(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded spec %s rejected by decode: %v", enc, err)
		}
		if msg := s.normalize(&again); msg != "" {
			t.Fatalf("re-encoded spec %s rejected by normalize: %s", enc, msg)
		}
		if again != req {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", again, req)
		}
	})
}
