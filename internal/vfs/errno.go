package vfs

import "fmt"

// Errno is a POSIX-style error number. The zero value OK means success.
// Errno values flow through traces: ARTC compares the Errno a replayed
// call produced against the Errno recorded in the trace to measure
// semantic correctness.
type Errno int

// The subset of POSIX error numbers the file-system model produces.
// Values match Linux/x86-64 so that strace output parses naturally.
const (
	OK           Errno = 0
	EPERM        Errno = 1
	ENOENT       Errno = 2
	EINTR        Errno = 4
	EIO          Errno = 5
	E2BIG        Errno = 7
	EBADF        Errno = 9
	EACCES       Errno = 13
	EBUSY        Errno = 16
	EEXIST       Errno = 17
	EXDEV        Errno = 18
	ENOTDIR      Errno = 20
	EISDIR       Errno = 21
	EINVAL       Errno = 22
	ENFILE       Errno = 23
	EMFILE       Errno = 24
	ETXTBSY      Errno = 26
	EFBIG        Errno = 27
	ENOSPC       Errno = 28
	ESPIPE       Errno = 29
	EROFS        Errno = 30
	EMLINK       Errno = 31
	EPIPE        Errno = 32
	ERANGE       Errno = 34
	ENAMETOOLONG Errno = 36
	ENOTEMPTY    Errno = 39
	ELOOP        Errno = 40
	ENODATA      Errno = 61
	EOVERFLOW    Errno = 75
	ENOTSUP      Errno = 95
)

var errnoNames = map[Errno]string{
	OK:           "OK",
	EPERM:        "EPERM",
	ENOENT:       "ENOENT",
	EINTR:        "EINTR",
	EIO:          "EIO",
	E2BIG:        "E2BIG",
	EBADF:        "EBADF",
	EACCES:       "EACCES",
	EBUSY:        "EBUSY",
	EEXIST:       "EEXIST",
	EXDEV:        "EXDEV",
	ENOTDIR:      "ENOTDIR",
	EISDIR:       "EISDIR",
	EINVAL:       "EINVAL",
	ENFILE:       "ENFILE",
	EMFILE:       "EMFILE",
	ETXTBSY:      "ETXTBSY",
	EFBIG:        "EFBIG",
	ENOSPC:       "ENOSPC",
	ESPIPE:       "ESPIPE",
	EROFS:        "EROFS",
	EMLINK:       "EMLINK",
	EPIPE:        "EPIPE",
	ERANGE:       "ERANGE",
	ENAMETOOLONG: "ENAMETOOLONG",
	ENOTEMPTY:    "ENOTEMPTY",
	ELOOP:        "ELOOP",
	ENODATA:      "ENODATA",
	EOVERFLOW:    "EOVERFLOW",
	ENOTSUP:      "ENOTSUP",
}

var errnoByName = func() map[string]Errno {
	m := make(map[string]Errno, len(errnoNames))
	for e, n := range errnoNames {
		m[n] = e
	}
	return m
}()

// String returns the symbolic name (e.g. "ENOENT"), or a numeric form for
// unknown values.
func (e Errno) String() string {
	if n, ok := errnoNames[e]; ok {
		return n
	}
	return fmt.Sprintf("errno(%d)", int(e))
}

// Error implements the error interface. OK should not be used as an
// error value, but returns "OK" if it is.
func (e Errno) Error() string { return e.String() }

// ErrnoByName maps a symbolic name like "ENOENT" back to its value,
// reporting whether the name is known. Used by trace parsers.
func ErrnoByName(name string) (Errno, bool) {
	e, ok := errnoByName[name]
	return e, ok
}
