package symbos

import (
	"fmt"
	"slices"
	"unicode/utf8"
)

// Buf is a modifiable 16-bit variant descriptor (TBuf/TDes16). Descriptors
// are Symbian's bounds-checked strings; the bounds checks are exactly what
// raises USER 10 ("position value ... out of bounds") and USER 11
// ("operation ... causes the length of that descriptor to exceed its
// maximum length") — together ~7% of the panics in Table 2.
type Buf struct {
	kernel *Kernel
	data   []rune
	max    int
}

// NewBuf returns an empty descriptor with the given maximum length.
func NewBuf(k *Kernel, max int) *Buf {
	if max < 0 {
		panic("symbos: negative descriptor capacity")
	}
	return &Buf{kernel: k, max: max}
}

// Len returns the current length.
func (b *Buf) Len() int { return len(b.data) }

// MaxLength returns the maximum length.
func (b *Buf) MaxLength() int { return b.max }

// String returns the contents.
func (b *Buf) String() string { return string(b.data) }

// Copy replaces the contents with s (TDes::Copy). Overflow raises USER 11.
func (b *Buf) Copy(s string) {
	n := utf8.RuneCountInString(s)
	if n > b.max {
		b.overflow("Copy", n)
	}
	b.data = appendRunes(b.data[:0], s, n)
}

// Append adds s at the end (TDes::Append). Overflow raises USER 11.
func (b *Buf) Append(s string) {
	n := utf8.RuneCountInString(s)
	if len(b.data)+n > b.max {
		b.overflow("Append", len(b.data)+n)
	}
	b.data = appendRunes(b.data, s, n)
}

// appendRunes appends the n runes of s to dst exactly as
// append(dst, []rune(s)...) would (invalid bytes become U+FFFD), growing dst
// at most once and without the temporary []rune.
func appendRunes(dst []rune, s string, n int) []rune {
	dst = slices.Grow(dst, n)
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// AppendFill adds n copies of ch (TDes::AppendFill). Overflow raises USER 11.
func (b *Buf) AppendFill(ch rune, n int) {
	if n < 0 {
		b.outOfRange("AppendFill", n)
	}
	if len(b.data)+n > b.max {
		b.overflow("AppendFill", len(b.data)+n)
	}
	for i := 0; i < n; i++ {
		b.data = append(b.data, ch)
	}
}

// Insert inserts s at pos (TDes::Insert). A position outside [0, Len]
// raises USER 10; overflow raises USER 11.
func (b *Buf) Insert(pos int, s string) {
	if pos < 0 || pos > len(b.data) {
		b.outOfRange("Insert", pos)
	}
	rs := []rune(s)
	if len(b.data)+len(rs) > b.max {
		b.overflow("Insert", len(b.data)+len(rs))
	}
	tail := append([]rune(nil), b.data[pos:]...)
	b.data = append(append(b.data[:pos], rs...), tail...)
}

// Delete removes length runes at pos (TDes::Delete). Out-of-bounds
// positions raise USER 10.
func (b *Buf) Delete(pos, length int) {
	if pos < 0 || length < 0 || pos+length > len(b.data) {
		b.outOfRange("Delete", pos)
	}
	b.data = append(b.data[:pos], b.data[pos+length:]...)
}

// Replace substitutes length runes at pos with s (TDes::Replace).
// Out-of-bounds positions raise USER 10; overflow raises USER 11.
func (b *Buf) Replace(pos, length int, s string) {
	if pos < 0 || length < 0 || pos+length > len(b.data) {
		b.outOfRange("Replace", pos)
	}
	rs := []rune(s)
	if len(b.data)-length+len(rs) > b.max {
		b.overflow("Replace", len(b.data)-length+len(rs))
	}
	tail := append([]rune(nil), b.data[pos+length:]...)
	b.data = append(append(b.data[:pos], rs...), tail...)
}

// Mid returns the length runes starting at pos (TDesC::Mid). Out-of-bounds
// raises USER 10.
func (b *Buf) Mid(pos, length int) string {
	if pos < 0 || length < 0 || pos+length > len(b.data) {
		b.outOfRange("Mid", pos)
	}
	return string(b.data[pos : pos+length])
}

// Left returns the leftmost n runes (TDesC::Left). n > Len raises USER 10.
func (b *Buf) Left(n int) string {
	if n < 0 || n > len(b.data) {
		b.outOfRange("Left", n)
	}
	return string(b.data[:n])
}

// Right returns the rightmost n runes (TDesC::Right). n > Len raises USER 10.
func (b *Buf) Right(n int) string {
	if n < 0 || n > len(b.data) {
		b.outOfRange("Right", n)
	}
	return string(b.data[len(b.data)-n:])
}

// SetLength truncates or zero-extends to n (TDes::SetLength). n beyond the
// maximum raises USER 11.
func (b *Buf) SetLength(n int) {
	if n < 0 || n > b.max {
		b.overflow("SetLength", n)
	}
	for len(b.data) < n {
		b.data = append(b.data, 0)
	}
	b.data = b.data[:n]
}

// ZeroTerminate appends a NUL (TDes::ZeroTerminate); like the real call it
// needs room for one extra element and raises USER 11 otherwise.
func (b *Buf) ZeroTerminate() {
	if len(b.data)+1 > b.max {
		b.overflow("ZeroTerminate", len(b.data)+1)
	}
	b.data = append(b.data, 0)
}

func (b *Buf) overflow(op string, want int) {
	b.kernel.Raise(CatUser, TypeDesOverflow,
		fmt.Sprintf("descriptor %s would need length %d, max is %d", op, want, b.max))
}

func (b *Buf) outOfRange(op string, pos int) {
	b.kernel.Raise(CatUser, TypeDesIndexOutOfRange,
		fmt.Sprintf("descriptor %s position %d out of bounds for length %d", op, pos, len(b.data)))
}
