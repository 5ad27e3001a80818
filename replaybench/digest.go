package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"rootreplay/internal/artc"
)

// digests.json pins the SHA-256 of every deterministic output per
// (workload, size, seed): a replay is a pure function of its trace, so
// any drift is a failed operation. Regenerate an entry with
// -record-digests when a change alters virtual-time behaviour on
// purpose.
//
//go:embed digests.json
var digestsJSON []byte

type digestTable map[string]map[string]string

func loadDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

func digestKey(workload string, size float64, seed int64) string {
	return fmt.Sprintf("%s/size=%g/seed=%d", workload, size, seed)
}

// digests checks each named output against the recorded digest and
// against the first value this run saw for the name.
type digests struct {
	recorded map[string]string
	seen     map[string]string
	// perturb flips a bit of every in-process output before it is
	// hashed or compared: the self-test's proof that drift is caught.
	perturb bool
}

func (d *digests) sum(data []byte) string {
	if d.perturb && len(data) > 0 {
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 1
	}
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:])
}

// check records got under name, failing on drift.
func (d *digests) check(name, got string) error {
	if want, ok := d.recorded[name]; ok && want != got {
		return fmt.Errorf("%s: digest %.12s differs from recorded %.12s", name, got, want)
	}
	if first, ok := d.seen[name]; ok && first != got {
		return fmt.Errorf("%s: digest %.12s drifted from %.12s earlier in this run", name, got, first)
	}
	d.seen[name] = got
	return nil
}

// reportBytes is the deterministic serialization of a replay report:
// every field, including per-action issue and completion times
// (encoding/json sorts map keys; host-time coordinator stats are
// excluded from JSON by the report type itself).
func reportBytes(rep *artc.Report) ([]byte, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("encoding report: %w", err)
	}
	return b, nil
}

// callDoc and replayDoc mirror the fields of artcd's replay result.
type callDoc struct {
	Name   string `json:"name"`
	Count  int64  `json:"count"`
	TimeNs int64  `json:"time_ns"`
}

type replayDoc struct {
	Method      string    `json:"method"`
	Actions     int       `json:"actions"`
	ElapsedNs   int64     `json:"elapsed_ns"`
	Errors      int       `json:"errors"`
	Emulated    int       `json:"emulated"`
	Concurrency float64   `json:"concurrency"`
	Calls       []callDoc `json:"calls"`
}

// replayDocOf renders an in-process report as the service's replay
// result fields, so the two compare byte for byte once both pass
// through canonicalDoc.
func replayDocOf(rep *artc.Report) replayDoc {
	doc := replayDoc{
		Method: string(rep.Method), Actions: rep.Actions, ElapsedNs: rep.Elapsed.Nanoseconds(),
		Errors: rep.Errors, Emulated: rep.Emulated, Concurrency: rep.Concurrency(),
		Calls: []callDoc{},
	}
	for c, t := range rep.CallTime {
		doc.Calls = append(doc.Calls, callDoc{c, rep.CallCount[c], t.Nanoseconds()})
	}
	sort.Slice(doc.Calls, func(i, j int) bool { return doc.Calls[i].Name < doc.Calls[j].Name })
	return doc
}

// canonicalDoc re-encodes a replay result keeping only replayDoc's
// fields, so fields the service may add later do not read as drift.
func canonicalDoc(body []byte) ([]byte, error) {
	var doc replayDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decoding replay result: %w", err)
	}
	if doc.Calls == nil {
		doc.Calls = []callDoc{}
	}
	return json.Marshal(doc)
}

// recordDigests merges this run's digests into the table file at path.
func recordDigests(path, key string, seen map[string]string) error {
	t := digestTable{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &t); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	t[key] = seen
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
