package mem

import (
	"testing"
	"testing/quick"
)

// allocTestObj allocates a raw object in a throwaway chunk.
func allocTestObj(t *testing.T, numPtr, numNonptr int, tag Tag) (ObjPtr, *Chunk) {
	t.Helper()
	c := NewChunk(ObjectWords(numPtr, numNonptr))
	off, ok := c.Bump(uint32(ObjectWords(numPtr, numNonptr)))
	if !ok {
		t.Fatal("bump failed")
	}
	return InitObject(c, off, numPtr, numNonptr, tag), c
}

func TestHeaderRoundtrip(t *testing.T) {
	f := func(np, nn uint16, tag uint8) bool {
		h := PackHeader(int(np), int(nn), Tag(tag))
		return headerNumPtr(h) == int(np) &&
			headerNumNonptr(h) == int(nn) &&
			headerTag(h) == Tag(tag)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHeaderRoundtripPast24Bits checks counts the old 24-bit fields could
// not hold (a paper-size usp-tree array needs ~1.7e8 words), up to the
// widest count the header encodes, with the tag still intact above them.
func TestHeaderRoundtripPast24Bits(t *testing.T) {
	for _, n := range []int{1 << 24, fieldMax} {
		for _, c := range [][2]int{{n, 0}, {0, n}, {n, n}} {
			h := PackHeader(c[0], c[1], TagOther)
			if headerNumPtr(h) != c[0] || headerNumNonptr(h) != c[1] || headerTag(h) != TagOther {
				t.Fatalf("PackHeader(%d, %d) round-trips to %d, %d, %v",
					c[0], c[1], headerNumPtr(h), headerNumNonptr(h), headerTag(h))
			}
		}
	}
}

func TestPackHeaderRejectsHugeCounts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PackHeader must reject out-of-range counts")
		}
	}()
	PackHeader(fieldMax+1, 0, TagTuple)
}

func TestObjectLayout(t *testing.T) {
	p, c := allocTestObj(t, 2, 3, TagTuple)
	defer FreeChunk(c)
	if NumPtrFields(p) != 2 || NumNonptrWords(p) != 3 || TagOf(p) != TagTuple {
		t.Fatalf("metadata mismatch: %d ptr, %d words, tag %v",
			NumPtrFields(p), NumNonptrWords(p), TagOf(p))
	}
	if SizeWords(p) != 7 {
		t.Fatalf("SizeWords = %d, want 7", SizeWords(p))
	}
	if HasFwd(p) {
		t.Fatal("fresh object must not be forwarded")
	}
}

func TestFieldReadWrite(t *testing.T) {
	p, c := allocTestObj(t, 2, 2, TagTuple)
	defer FreeChunk(c)
	q := MakeObjPtr(7, 42)
	StorePtrField(p, 0, q)
	StorePtrFieldAtomic(p, 1, q)
	StoreWordField(p, 0, 123)
	StoreWordFieldAtomic(p, 1, 456)
	if LoadPtrField(p, 0) != q || LoadPtrFieldAtomic(p, 1) != q {
		t.Fatal("pointer field roundtrip failed")
	}
	if LoadWordField(p, 0) != 123 || LoadWordFieldAtomic(p, 1) != 456 {
		t.Fatal("word field roundtrip failed")
	}
}

func TestFieldBoundsChecks(t *testing.T) {
	p, c := allocTestObj(t, 1, 1, TagTuple)
	defer FreeChunk(c)
	cases := []func(){
		func() { LoadPtrField(p, 1) },
		func() { StorePtrField(p, -1, NilPtr) },
		func() { LoadWordField(p, 1) },
		func() { StoreWordFieldAtomic(p, 2, 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: out-of-range access must panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestPtrAndWordFieldsDoNotAlias(t *testing.T) {
	f := func(np, nn uint8, seed uint64) bool {
		numPtr, numNonptr := int(np%8)+1, int(nn%8)+1
		c := NewChunk(ObjectWords(numPtr, numNonptr))
		defer FreeChunk(c)
		off, _ := c.Bump(uint32(ObjectWords(numPtr, numNonptr)))
		p := InitObject(c, off, numPtr, numNonptr, TagTuple)
		for i := 0; i < numPtr; i++ {
			StorePtrField(p, i, MakeObjPtr(uint32(seed)+uint32(i)+1, 0))
		}
		for i := 0; i < numNonptr; i++ {
			StoreWordField(p, i, seed^uint64(i))
		}
		for i := 0; i < numPtr; i++ {
			if LoadPtrField(p, i) != MakeObjPtr(uint32(seed)+uint32(i)+1, 0) {
				return false
			}
		}
		for i := 0; i < numNonptr; i++ {
			if LoadWordField(p, i) != seed^uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForwardingPointer(t *testing.T) {
	p, c := allocTestObj(t, 0, 1, TagRef)
	defer FreeChunk(c)
	q, c2 := allocTestObj(t, 0, 1, TagRef)
	defer FreeChunk(c2)
	if HasFwd(p) {
		t.Fatal("no fwd expected")
	}
	StoreFwd(p, q)
	if !HasFwd(p) || LoadFwd(p) != q {
		t.Fatal("fwd install failed")
	}
	if HasFwd(q) {
		t.Fatal("fwd must not leak to target")
	}
}

func TestCAS(t *testing.T) {
	p, c := allocTestObj(t, 1, 1, TagRef)
	defer FreeChunk(c)
	if !CASWordField(p, 0, 0, 9) || LoadWordField(p, 0) != 9 {
		t.Fatal("word CAS from zero failed")
	}
	if CASWordField(p, 0, 0, 10) {
		t.Fatal("word CAS with stale old must fail")
	}
	q := MakeObjPtr(5, 5)
	if !CASPtrField(p, 0, NilPtr, q) || LoadPtrField(p, 0) != q {
		t.Fatal("ptr CAS from nil failed")
	}
	if CASPtrField(p, 0, NilPtr, q) {
		t.Fatal("ptr CAS with stale old must fail")
	}
}

func TestCopyBody(t *testing.T) {
	src, c1 := allocTestObj(t, 2, 2, TagTuple)
	defer FreeChunk(c1)
	dst, c2 := allocTestObj(t, 2, 2, TagTuple)
	defer FreeChunk(c2)
	StorePtrField(src, 0, MakeObjPtr(9, 9))
	StorePtrField(src, 1, MakeObjPtr(8, 8))
	StoreWordField(src, 0, 111)
	StoreWordField(src, 1, 222)
	StoreFwd(src, MakeObjPtr(1, 1))
	CopyBody(dst, src)
	if LoadPtrField(dst, 0) != MakeObjPtr(9, 9) || LoadPtrField(dst, 1) != MakeObjPtr(8, 8) {
		t.Fatal("pointer fields not copied")
	}
	if LoadWordField(dst, 0) != 111 || LoadWordField(dst, 1) != 222 {
		t.Fatal("word fields not copied")
	}
	if HasFwd(dst) {
		t.Fatal("CopyBody must not copy the forwarding word")
	}
}
