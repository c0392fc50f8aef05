package mem

import (
	"fmt"
	"sync/atomic"
)

// Tag classifies an object's kind. Tags are carried for debugging, GC
// statistics, and the disentanglement checker; the runtime algorithms only
// depend on the pointer/non-pointer field split in the header.
type Tag uint8

// Object kinds used by the runtime and the benchmark substrates.
const (
	TagInvalid Tag = iota
	TagRef         // single mutable cell
	TagTuple       // immutable record
	TagArrI64      // array of raw 64-bit words (ints or floats)
	TagArrPtr      // array of object pointers
	TagCons        // list cell
	TagLeaf        // quadtree / rope leaf
	TagNode        // quadtree / rope interior node
	TagOther
)

func (t Tag) String() string {
	switch t {
	case TagRef:
		return "ref"
	case TagTuple:
		return "tuple"
	case TagArrI64:
		return "arr-i64"
	case TagArrPtr:
		return "arr-ptr"
	case TagCons:
		return "cons"
	case TagLeaf:
		return "leaf"
	case TagNode:
		return "node"
	case TagOther:
		return "other"
	default:
		return fmt.Sprintf("tag(%d)", uint8(t))
	}
}

// Object layout within a chunk, in words:
//
//	+0  header:  numPtr (bits 0..27) | numNonptr (bits 28..55) | tag (56..63)
//	+1  forwarding pointer (an ObjPtr; NilPtr when absent)
//	+2 ..              pointer fields (numPtr words)
//	+2+numPtr ..       non-pointer words (numNonptr words)
const (
	HeaderWords = 2
	hdrOff      = 0
	fwdOff      = 1

	fieldBits = 28
	fieldMax  = 1<<fieldBits - 1
)

// PackHeader builds an object header word.
func PackHeader(numPtr, numNonptr int, tag Tag) uint64 {
	if numPtr < 0 || numPtr > fieldMax || numNonptr < 0 || numNonptr > fieldMax {
		panic(fmt.Sprintf("mem: field counts out of range: %d ptr, %d nonptr", numPtr, numNonptr))
	}
	return uint64(numPtr) | uint64(numNonptr)<<fieldBits | uint64(tag)<<(2*fieldBits)
}

func headerNumPtr(h uint64) int    { return int(h & fieldMax) }
func headerNumNonptr(h uint64) int { return int(h >> fieldBits & fieldMax) }
func headerTag(h uint64) Tag       { return Tag(h >> (2 * fieldBits) & 0xff) }

// ObjectWords returns the total footprint in words of an object with the
// given field counts, including the two metadata words.
func ObjectWords(numPtr, numNonptr int) int { return HeaderWords + numPtr + numNonptr }

// InitObject writes a fresh object's metadata at offset off in chunk c and
// returns its handle. Field words are zero (chunks start zeroed and
// collectors clear recycled space).
func InitObject(c *Chunk, off uint32, numPtr, numNonptr int, tag Tag) ObjPtr {
	c.Data[off+hdrOff] = PackHeader(numPtr, numNonptr, tag)
	c.Data[off+fwdOff] = uint64(NilPtr)
	return MakeObjPtr(c.id, off)
}

func headerOf(p ObjPtr) uint64 {
	return GetChunk(p.ChunkID()).Data[p.Off()+hdrOff]
}

// NumPtrFields returns the number of pointer fields of the object.
func NumPtrFields(p ObjPtr) int { return headerNumPtr(headerOf(p)) }

// NumNonptrWords returns the number of non-pointer words of the object.
func NumNonptrWords(p ObjPtr) int { return headerNumNonptr(headerOf(p)) }

// TagOf returns the object's kind tag.
func TagOf(p ObjPtr) Tag { return headerTag(headerOf(p)) }

// SizeWords returns the object's total footprint in words.
func SizeWords(p ObjPtr) int {
	h := headerOf(p)
	return HeaderWords + headerNumPtr(h) + headerNumNonptr(h)
}

// wordAddr returns the address of word i of the object's body, where the
// body starts at the header.
func wordAddr(p ObjPtr, i uint32) *uint64 {
	c := GetChunk(p.ChunkID())
	return &c.Data[p.Off()+i]
}

// Forwarding pointer access. The forwarding word is always accessed
// atomically: promotions install it while holding the heap's write lock,
// but fast paths read it without any lock (Figure 6's double-checked
// pattern), and atomic store/load pairs give the release/acquire ordering
// that publishes the copied object's fields.

// LoadFwd atomically reads the object's forwarding pointer.
func LoadFwd(p ObjPtr) ObjPtr {
	return ObjPtr(atomic.LoadUint64(wordAddr(p, fwdOff)))
}

// StoreFwd atomically installs a forwarding pointer.
func StoreFwd(p, next ObjPtr) {
	atomic.StoreUint64(wordAddr(p, fwdOff), uint64(next))
}

// HasFwd reports whether the object has a forwarding pointer installed.
func HasFwd(p ObjPtr) bool { return !LoadFwd(p).IsNil() }

// ptrField resolves p's chunk once, checks i against the object's
// pointer-field count and returns the address of pointer field i.
func ptrField(p ObjPtr, i int) *uint64 {
	d := GetChunk(p.ChunkID()).Data[p.Off():]
	if h := d[hdrOff]; uint(i) >= uint(headerNumPtr(h)) {
		panic(fmt.Sprintf("mem: pointer field %d out of range on %v (%s, %d ptr fields)",
			i, p, headerTag(h), headerNumPtr(h)))
	}
	return &d[HeaderWords+i]
}

// wordField is ptrField for non-pointer word i.
func wordField(p ObjPtr, i int) *uint64 {
	d := GetChunk(p.ChunkID()).Data[p.Off():]
	h := d[hdrOff]
	if uint(i) >= uint(headerNumNonptr(h)) {
		panic(fmt.Sprintf("mem: word field %d out of range on %v (%s, %d words)",
			i, p, headerTag(h), headerNumNonptr(h)))
	}
	return &d[HeaderWords+headerNumPtr(h)+i]
}

// LoadPtrField reads pointer field i with a plain load. Use for immutable
// fields, initialization, and single-owner phases.
func LoadPtrField(p ObjPtr, i int) ObjPtr { return ObjPtr(*ptrField(p, i)) }

// StorePtrField writes pointer field i with a plain store (initializing
// writes only).
func StorePtrField(p ObjPtr, i int, q ObjPtr) { *ptrField(p, i) = uint64(q) }

// LoadPtrFieldAtomic reads mutable pointer field i.
func LoadPtrFieldAtomic(p ObjPtr, i int) ObjPtr {
	return ObjPtr(atomic.LoadUint64(ptrField(p, i)))
}

// StorePtrFieldAtomic writes mutable pointer field i.
func StorePtrFieldAtomic(p ObjPtr, i int, q ObjPtr) {
	atomic.StoreUint64(ptrField(p, i), uint64(q))
}

// CASPtrField atomically compares-and-swaps mutable pointer field i. It
// backs the benchmarks' compare-and-swap visited marks.
func CASPtrField(p ObjPtr, i int, old, new ObjPtr) bool {
	return atomic.CompareAndSwapUint64(ptrField(p, i), uint64(old), uint64(new))
}

// LoadWordField reads non-pointer word i with a plain load.
func LoadWordField(p ObjPtr, i int) uint64 { return *wordField(p, i) }

// StoreWordField writes non-pointer word i with a plain store.
func StoreWordField(p ObjPtr, i int, v uint64) { *wordField(p, i) = v }

// LoadWordFieldAtomic reads mutable non-pointer word i.
func LoadWordFieldAtomic(p ObjPtr, i int) uint64 { return atomic.LoadUint64(wordField(p, i)) }

// StoreWordFieldAtomic writes mutable non-pointer word i.
func StoreWordFieldAtomic(p ObjPtr, i int, v uint64) { atomic.StoreUint64(wordField(p, i), v) }

// CASWordField atomically compares-and-swaps mutable non-pointer word i.
func CASWordField(p ObjPtr, i int, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(wordField(p, i), old, new)
}

// CopyBody copies every field word (pointer and non-pointer alike, but not
// header or forwarding word) from src to a freshly allocated dst of the
// same shape. Used by promotion and collection after dst's metadata is in
// place.
//
// Source words are read atomically: promotion installs the forwarding
// pointer before copying (paper Figure 7, line 33), so optimistic distant
// writers may legitimately race with the copy — their post-write forwarding
// check redirects any missed update to the master copy. The destination is
// private until the promotion's heap locks are released, so plain stores
// suffice there.
func CopyBody(dst, src ObjPtr) {
	h := headerOf(src)
	n := uint32(headerNumPtr(h) + headerNumNonptr(h))
	sc := GetChunk(src.ChunkID())
	dc := GetChunk(dst.ChunkID())
	sw := sc.Data[src.Off()+HeaderWords : src.Off()+HeaderWords+n]
	dw := dc.Data[dst.Off()+HeaderWords : dst.Off()+HeaderWords+n]
	for i := range sw {
		dw[i] = atomic.LoadUint64(&sw[i])
	}
}
