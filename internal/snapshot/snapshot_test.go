package snapshot

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rootreplay/internal/sim"
	"rootreplay/internal/stack"
	"rootreplay/internal/vfs"
)

func newSys() *stack.System {
	k := sim.NewKernel()
	return stack.New(k, stack.DefaultConfig())
}

func buildSample(t *testing.T, sys *stack.System) {
	t.Helper()
	steps := []error{
		sys.SetupMkdirAll("/app/data"),
		sys.SetupCreate("/app/data/db.sqlite", 1<<20),
		sys.SetupCreate("/app/cache/thumb.png", 4096),
		sys.SetupSymlink("/app/data/db.sqlite", "/app/current"),
		sys.SetupSpecial("/dev/urandom", stack.SpecialURandom),
		sys.SetupXattr("/app/data/db.sqlite", "user.checksum", 16),
	}
	for _, err := range steps {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestCaptureRestoreRoundTrip(t *testing.T) {
	src := newSys()
	buildSample(t, src)
	snap := Capture(src)

	dst := newSys()
	if err := Restore(dst, "", snap); err != nil {
		t.Fatal(err)
	}
	ino, err := dst.FS.Resolve(nil, "/app/data/db.sqlite")
	if err != vfs.OK || ino.Size != 1<<20 {
		t.Fatalf("restored file: %v err=%v", ino, err)
	}
	target, err := dst.FS.Readlink(nil, "/app/current")
	if err != vfs.OK || target != "/app/data/db.sqlite" {
		t.Fatalf("restored symlink: %q err=%v", target, err)
	}
	if v, err := dst.FS.Getxattr(nil, "/app/data/db.sqlite", "user.checksum"); err != vfs.OK || len(v) != 16 {
		t.Fatalf("restored xattr: %d bytes err=%v", len(v), err)
	}
	sp, err := dst.FS.ResolveNoFollow(nil, "/dev/urandom")
	if err != vfs.OK || sp.Type != vfs.TypeSpecial {
		t.Fatalf("restored special: %v err=%v", sp, err)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	src := newSys()
	buildSample(t, src)
	snap := Capture(src)

	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(snap.Entries) {
		t.Fatalf("entry count %d != %d", len(got.Entries), len(snap.Entries))
	}
	// Restoring the parsed snapshot must produce the same tree.
	dst := newSys()
	if err := Restore(dst, "", got); err != nil {
		t.Fatal(err)
	}
	ino, errno := dst.FS.Resolve(nil, "/app/data/db.sqlite")
	if errno != vfs.OK || ino.Size != 1<<20 {
		t.Fatal("parsed snapshot restore mismatch")
	}
}

func TestRestoreWithPrefix(t *testing.T) {
	src := newSys()
	buildSample(t, src)
	snap := Capture(src)

	dst := newSys()
	if err := Restore(dst, "/bench0", snap); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.FS.Resolve(nil, "/bench0/app/data/db.sqlite"); err != vfs.OK {
		t.Fatalf("prefixed restore: %v", err)
	}
}

// Overlay init: restoring two snapshots into the same tree (the iPhoto +
// iTunes concurrent-replay scenario from §4.3.2).
func TestOverlayRestore(t *testing.T) {
	a := newSys()
	if err := a.SetupCreate("/Library/app_a/data", 1000); err != nil {
		t.Fatal(err)
	}
	if err := a.SetupSpecial("/dev/urandom", stack.SpecialURandom); err != nil {
		t.Fatal(err)
	}
	b := newSys()
	if err := b.SetupCreate("/Library/app_b/data", 2000); err != nil {
		t.Fatal(err)
	}
	if err := b.SetupSpecial("/dev/urandom", stack.SpecialURandom); err != nil {
		t.Fatal(err)
	}
	dst := newSys()
	if err := Restore(dst, "", Capture(a)); err != nil {
		t.Fatal(err)
	}
	if err := Restore(dst, "", Capture(b)); err != nil {
		t.Fatalf("overlay restore: %v", err)
	}
	if _, err := dst.FS.Resolve(nil, "/Library/app_a/data"); err != vfs.OK {
		t.Fatal("app_a missing")
	}
	if _, err := dst.FS.Resolve(nil, "/Library/app_b/data"); err != vfs.OK {
		t.Fatal("app_b missing")
	}
}

func TestDeltaRestore(t *testing.T) {
	src := newSys()
	buildSample(t, src)
	snap := Capture(src)

	dst := newSys()
	if err := Restore(dst, "", snap); err != nil {
		t.Fatal(err)
	}
	// Perturb: grow one file, delete another, add an extraneous one.
	ino, _ := dst.FS.Resolve(nil, "/app/data/db.sqlite")
	ino.Size = 999
	if err := dst.SetupUnlink("/app/cache/thumb.png"); err != nil {
		t.Fatal(err)
	}
	if err := dst.SetupCreate("/app/data/junk.tmp", 10); err != nil {
		t.Fatal(err)
	}

	st, err := DeltaRestore(dst, "", snap)
	if err != nil {
		t.Fatal(err)
	}
	if st.Resized != 1 {
		t.Errorf("resized = %d, want 1", st.Resized)
	}
	if st.Created != 1 {
		t.Errorf("created = %d, want 1", st.Created)
	}
	if st.Removed != 1 {
		t.Errorf("removed = %d, want 1", st.Removed)
	}
	ino, errno := dst.FS.Resolve(nil, "/app/data/db.sqlite")
	if errno != vfs.OK || ino.Size != 1<<20 {
		t.Fatal("size not restored")
	}
	if _, errno := dst.FS.Resolve(nil, "/app/cache/thumb.png"); errno != vfs.OK {
		t.Fatal("deleted file not recreated")
	}
	if _, errno := dst.FS.Resolve(nil, "/app/data/junk.tmp"); errno != vfs.ENOENT {
		t.Fatal("extraneous file survived delta init")
	}
}

func TestDeltaRestoreNoChanges(t *testing.T) {
	src := newSys()
	buildSample(t, src)
	snap := Capture(src)
	dst := newSys()
	if err := Restore(dst, "", snap); err != nil {
		t.Fatal(err)
	}
	st, err := DeltaRestore(dst, "", snap)
	if err != nil {
		t.Fatal(err)
	}
	if st.Created != 0 || st.Resized != 0 || st.Removed != 0 {
		t.Fatalf("delta on identical tree: %+v", st)
	}
	if st.Kept == 0 {
		t.Fatal("nothing kept")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		in   string
		line int
	}{
		{"garbage /a", 1},
		{"file /a", 1},                              // missing size
		{"file /a xx", 1},                           // bad size
		{"file /a -1", 1},                           // negative size
		{"slink /l", 1},                             // missing target
		{"xattr /nope \"user.k\" 3", 1},             // unknown path
		{"dir", 1},                                  // too few
		{"file \"\" 1", 1},                          // empty path
		{"file /a 1\nxattr /a \"user.k\" -1", 2},    // negative xattr size
		{"file /a 1\nxattr /a \"user.k\" 65537", 2}, // over XATTR_SIZE_MAX
	}
	for _, c := range cases {
		_, err := Decode(bytes.NewReader([]byte(c.in + "\n")))
		if err == nil {
			t.Errorf("no error for %q", c.in)
		} else if want := fmt.Sprintf("line %d:", c.line); !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %q does not name %s", c.in, err, want)
		}
	}
}

func TestFromTrace(t *testing.T) {
	recs := []PreScanRecord{
		{Call: "open", Path: "/data/input.txt", FD: 3, OK: true},
		{Call: "read", FD: 3, Size: 5000, OK: true},
		{Call: "read", FD: 3, Size: 5000, OK: true},
		{Call: "open", Path: "/data/new.out", FD: 4, OK: true, Creates: true},
		{Call: "pread", FD: 3, Size: 100, Offset: 100000, OK: true},
		{Call: "stat", Path: "/etc/conf", OK: true},
		{Call: "stat", Path: "/missing", OK: false},
		{Call: "mkdir", Path: "/tmp/scratch", OK: true},
	}
	snap := FromTrace(recs)
	byPath := make(map[string]Entry)
	for _, e := range snap.Entries {
		byPath[e.Path] = e
	}
	f, ok := byPath["/data/input.txt"]
	if !ok || f.Kind != KindFile {
		t.Fatalf("input.txt entry: %+v", f)
	}
	if f.Size < 100100 {
		t.Fatalf("inferred size = %d, want >= 100100 (pread extent)", f.Size)
	}
	if _, ok := byPath["/data/new.out"]; ok {
		t.Fatal("trace-created file ended up in snapshot")
	}
	if _, ok := byPath["/missing"]; ok {
		t.Fatal("failed stat path ended up in snapshot")
	}
	if e, ok := byPath["/etc/conf"]; !ok || e.Kind != KindFile {
		t.Fatal("stat'd path missing from snapshot")
	}
	if e, ok := byPath["/data"]; !ok || e.Kind != KindDir {
		t.Fatal("parent dir missing")
	}
}

func TestDeltaRestoreRemovesNestedExtraneousTree(t *testing.T) {
	src := newSys()
	buildSample(t, src)
	snap := Capture(src)
	dst := newSys()
	if err := Restore(dst, "", snap); err != nil {
		t.Fatal(err)
	}
	// A replay left a whole subtree behind.
	if err := dst.SetupCreate("/app/data/scratch/deep/file.tmp", 10); err != nil {
		t.Fatal(err)
	}
	st, err := DeltaRestore(dst, "", snap)
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed < 3 { // scratch, deep, file.tmp
		t.Fatalf("removed = %d, want >= 3", st.Removed)
	}
	if _, errno := dst.FS.ResolveNoFollow(nil, "/app/data/scratch"); errno != vfs.ENOENT {
		t.Fatal("extraneous subtree survived delta init")
	}
}
