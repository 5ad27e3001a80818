package snapshot

import (
	"bytes"
	"testing"

	"rootreplay/internal/vfs"
)

// FuzzDecodeSnapshot drives Decode, the parser behind every snapshot
// artcd accepts for upload, with arbitrary text. `go test` runs the
// seed corpus; `go test -fuzz=FuzzDecodeSnapshot ./internal/snapshot`
// explores. Invariants: Decode never panics; an accepted snapshot
// re-encodes to text that decodes and re-encodes byte-identically; and
// restoring it into a fresh vfs never panics.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, seed := range []string{
		"#artc-snapshot v1\n" +
			"dir /app 0755\n" +
			"file \"/app/my data\" 4096 0644\n" +
			"xattr \"/app/my data\" \"user.k\" 16\n" +
			"slink /app/current \"/app/my data\"\n" +
			"special /dev/urandom 1\n" +
			"xattr /dev/urandom \"user.\\\"q\\\"\" 0\n",
		"file /a 1\nxattr /a \"user.k\" 65536\n",
		"file /a 1\nxattr /a \"user.k\" 65537\n",
		"file /a 1\nxattr /a \"user.k\" -1\n",
		"file /a -1\n",
		"dir /a\nfile /a/b 0\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		snap, err := Decode(bytes.NewReader([]byte(in)))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := snap.Encode(&first); err != nil {
			t.Fatalf("encode: %v", err)
		}
		again, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of\n%s: %v", first.Bytes(), err)
		}
		var second bytes.Buffer
		if err := again.Encode(&second); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding not stable:\nfirst:\n%s\nsecond:\n%s", first.Bytes(), second.Bytes())
		}
		_ = RestoreTree(vfs.New(), "", snap)
	})
}
