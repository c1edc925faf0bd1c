// Package codec is the fixture's byte primitives: Encoder calls make a
// function a state writer, Decoder calls a state reader.
package codec

// Encoder is the write half.
type Encoder struct{ buf []byte }

// Decoder is the read half.
type Decoder struct {
	buf []byte
	pos int
}

// Int writes v.
func (e *Encoder) Int(v int) { e.buf = append(e.buf, byte(v)) }

// Str writes s.
func (e *Encoder) Str(s string) { e.buf = append(e.buf, s...) }

// Int reads one int.
func (d *Decoder) Int() int {
	d.pos++
	return int(d.buf[d.pos-1])
}

// Str reads one string.
func (d *Decoder) Str() string { return string(d.buf[d.pos:]) }
