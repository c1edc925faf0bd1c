package checkpoint

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWritebackIgnoresErrors: a file sync_file_range refuses (a pipe
// answers ESPIPE on Linux) still takes a complete checkpoint stream through
// the writeback writer, byte for byte what Encode writes into a buffer.
func TestWritebackIgnoresErrors(t *testing.T) {
	snap := testSnapshot(t, 12)
	meta := map[string]string{"workload": "codec"}
	var want bytes.Buffer
	if err := Encode(&want, snap, meta); err != nil {
		t.Fatal(err)
	}
	if want.Len() < 4*os.Getpagesize() {
		t.Fatalf("a %d-byte stream starts no writeback", want.Len())
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		got <- b
	}()
	_, werr := writeFramed(&writeback{f: w}, snap.Stream, meta)
	w.Close()
	if werr != nil {
		t.Fatalf("writing through the writeback writer into a pipe: %v", werr)
	}
	if !bytes.Equal(<-got, want.Bytes()) {
		t.Fatal("the writeback writer's bytes differ from Encode's")
	}
}

// TestWriteFileBytesEqualEncode: the file Write leaves is exactly the
// bytes Encode writes into a buffer.
func TestWriteFileBytesEqualEncode(t *testing.T) {
	snap := testSnapshot(t, 12)
	meta := map[string]string{"workload": "codec"}
	var want bytes.Buffer
	if err := Encode(&want, snap, meta); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), FileName("codec", 12))
	if err := Write(path, snap, meta); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("Write left %d bytes that differ from Encode's %d", len(got), want.Len())
	}
}
