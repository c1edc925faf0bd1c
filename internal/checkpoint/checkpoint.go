package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// ErrCorrupt is wrapped by every Decode/Read error caused by a damaged or
// truncated snapshot, as opposed to I/O failure reaching the bytes.
var ErrCorrupt = errors.New("corrupt snapshot")

// Version is the current wire-format version. Decode accepts exactly the
// versions it knows how to interpret (currently only this one). Version 2
// frames the head and every shard run with its own length and CRC-32C, in
// place of version 1's unframed runs under one trailing CRC, and spells a
// model's one-point history only when a ring holds it.
const Version = 2

// magic opens every snapshot file: "SACSNAP" plus a format byte, so a
// future incompatible rework can change the magic rather than the version.
var magic = [8]byte{'S', 'A', 'C', 'S', 'N', 'A', 'P', 1}

// FileExt is the extension snapshot files are written with.
const FileExt = ".ckpt"

// tickDigits is the zero-padded width of the tick field in snapshot file
// names; fixed width makes lexicographic order equal tick order.
const tickDigits = 12

// FileName returns the canonical snapshot file name for a population id at
// a tick: "<id>-t<zero-padded tick><FileExt>". Zero-padding makes
// lexicographic order equal tick order, which Latest relies on.
func FileName(id string, tick int) string {
	return fmt.Sprintf("%s-t%0*d%s", id, tickDigits, tick, FileExt)
}

// ownedBy reports whether name is a snapshot file written by FileName for
// exactly this id. The tick field must be all digits of the fixed width,
// so an id that happens to end in "-t<digits>" (e.g. "x-t5") can never
// claim — or lose — the files of a different id ("x").
func ownedBy(name, id string) bool {
	rest, ok := strings.CutPrefix(name, id+"-t")
	if !ok {
		return false
	}
	rest, ok = strings.CutSuffix(rest, FileExt)
	if !ok || len(rest) != tickDigits {
		return false
	}
	for _, c := range rest {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// tempName matches exactly the names Write's CreateTemp makes: a snapshot
// file name (see FileName) followed by ".tmp" and the random digits in
// place of its "*". A looser match would take the snapshots of an id such
// as "a.ckpt.tmp" for orphans.
var tempName = regexp.MustCompile(fmt.Sprintf(`-t\d{%d}%s\.tmp\d+$`, tickDigits, regexp.QuoteMeta(FileExt)))

// Latest returns the path of the newest (highest-tick) snapshot file for
// the given population id in dir, or os.ErrNotExist when none is present.
func Latest(dir, id string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var best string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !ownedBy(name, id) {
			continue
		}
		if best == "" || name > best {
			best = name
		}
	}
	if best == "" {
		return "", fmt.Errorf("no snapshot for population %q in %s: %w", id, dir, os.ErrNotExist)
	}
	return filepath.Join(dir, best), nil
}

// RemoveTemp deletes temporary files left behind by Write calls that were
// interrupted before their rename (SIGKILL, power loss). Orphans match no
// population id — Prune never touches them — so a long-lived daemon calls
// this once at startup to keep crashes from leaking disk space. It returns
// how many files were removed.
func RemoveTemp(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, e := range entries {
		if e.IsDir() || !tempName.MatchString(e.Name()) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// Prune deletes all but the newest keep snapshot files for population id in
// dir, returning how many files were removed. keep < 1 is treated as 1: the
// newest snapshot is never pruned.
func Prune(dir, id string, keep int) (int, error) {
	if keep < 1 {
		keep = 1
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && ownedBy(name, id) {
			names = append(names, name)
		}
	}
	if len(names) <= keep {
		return 0, nil
	}
	sort.Strings(names)
	removed := 0
	for _, name := range names[:len(names)-keep] {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}
