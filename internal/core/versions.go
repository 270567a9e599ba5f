package core

import "unsafe"

// block32 is chunkLen entries of a float32 model version, v, shared by
// every version the run holds whose entries there have the same bits:
// refs counts those versions, and next is the block held at the same
// place before it (blockStore.heads). The entries lie apart from the
// record, so a slab of them fills whole pages.
type block32 struct {
	v    *[chunkLen]float32
	refs int32
	next *block32
}

// bitsOf is v's entries as their bit patterns, which == compares whole.
func bitsOf(v *[chunkLen]float32) *[chunkLen]uint32 { return (*[chunkLen]uint32)(unsafe.Pointer(v)) }

// image32 is a model version held as the float32 image a float32
// downlink delivers (Server.hold): n entries in blocks of chunkLen, the
// last one's entries past n zero. A version that is not held has n 0,
// and keeps its table's storage for the next one.
type image32 struct {
	blocks []*block32
	n      int
}

// block is entries [b·chunkLen, (b+1)·chunkLen) of im, short at its
// tail.
func (im *image32) block(b int) []float32 {
	return im.blocks[b].v[:min(chunkLen, im.n-b*chunkLen)]
}

// widen writes im at float64 into dst, n entries, and returns dst.
func (im *image32) widen(dst []float64) []float64 {
	for b := range im.blocks {
		widen(dst[b*chunkLen:], im.block(b))
	}
	return dst[:im.n]
}

// flat is a version held as one float64 vector, read a block at a time
// like an image32 (version).
type flat []float64

func (v flat) block(b int) []float64 { return v[b*chunkLen : min(b*chunkLen+chunkLen, len(v))] }

// version is a model version as an upload patch is taken against it and
// rebuilt from it, a block of chunkLen entries at a time: the global at
// float64 (flat), or a version's float32 image (image32).
type version[T float32 | float64] interface {
	block(b int) []T
}

// blockStore is what a run's float32 versions are made of. A version
// holds one block per chunkLen entries, and shares every block whose
// bits equal those of a block at the same place that a version the run
// holds has already: heads lists, per place, the distinct blocks held
// there, newest first. So the blocks held are the distinct (place, bits)
// pairs of the versions held, whatever order they were taken in; a
// coordinate-wise merge of sparse uploads leaves most of a version's
// blocks as they were. A block no version holds goes on the free list,
// which later versions take from; a version that needs more blocks than
// the list has allocates one slab of the rest. It is touched on the
// event loop only; shards read the blocks of the versions their jobs
// hold.
type blockStore struct {
	heads []*block32
	free  []*block32
	held  int // blocks some version holds
}

// take holds v, every entry of which is exact in float32, as im. A first
// pass narrows each block and shares it with the one held at its place
// with the same bits, and counts the blocks no version has; a second
// narrows each of those into a free block, or into one slab of them
// allocated for the blocks the free list is short of.
func (st *blockStore) take(im *image32, v []float64) {
	nb := (len(v) + chunkLen - 1) / chunkLen
	if len(st.heads) != nb {
		st.heads = make([]*block32, nb)
	}
	if cap(im.blocks) < nb {
		im.blocks = make([]*block32, 0, nb)
	}
	im.blocks, im.n = im.blocks[:0], len(v)
	var stage [chunkLen]float32
	missing := 0
	for b := range nb {
		narrowBlock(&stage, v, b)
		blk := st.heads[b]
		for blk != nil && *bitsOf(blk.v) != *bitsOf(&stage) {
			blk = blk.next
		}
		if blk == nil {
			missing++
		} else {
			blk.refs++
		}
		im.blocks = append(im.blocks, blk)
	}
	var slab []block32
	if k := missing - len(st.free); k > 0 {
		vs := make([][chunkLen]float32, k)
		slab = make([]block32, k)
		for i := range slab {
			slab[i].v = &vs[i]
		}
	}
	for b, blk := range im.blocks {
		if blk != nil {
			continue
		}
		if n := len(st.free); n > 0 {
			blk, st.free = st.free[n-1], st.free[:n-1]
		} else {
			blk, slab = &slab[0], slab[1:]
		}
		narrowBlock(blk.v, v, b)
		blk.refs, blk.next = 1, st.heads[b]
		st.heads[b] = blk
		im.blocks[b] = blk
		st.held++
	}
}

// narrowBlock writes block b of v at float32 into dst, zero past v's end.
func narrowBlock(dst *[chunkLen]float32, v []float64, b int) {
	seg := v[b*chunkLen : min(b*chunkLen+chunkLen, len(v))]
	for i, x := range seg {
		dst[i] = float32(x)
	}
	clear(dst[len(seg):])
}

// drop lets go of im: each of its blocks that no other version holds
// leaves its place's list for the free list.
func (st *blockStore) drop(im *image32) {
	for b, blk := range im.blocks {
		if blk.refs--; blk.refs > 0 {
			continue
		}
		at := &st.heads[b]
		for *at != blk {
			at = &(*at).next
		}
		*at, blk.next = blk.next, nil
		st.free = append(st.free, blk)
		st.held--
	}
	clear(im.blocks)
	im.blocks, im.n = im.blocks[:0], 0
}

// footprint is what st's versions, those of snaps held at float32, and
// its free list hold: the versions' blocks, each once, and their
// tables; the blocks held; and the free blocks.
func (st *blockStore) footprint(snaps []*globalSnap) (versions Held, blocks int, free Held) {
	size := int64(unsafe.Sizeof([chunkLen]float32{}) + unsafe.Sizeof(block32{}))
	for _, sn := range snaps {
		if sn.img.n > 0 {
			versions.add(8 * cap(sn.img.blocks))
		}
	}
	versions.Bytes += int64(st.held) * size
	free = Held{N: len(st.free), Bytes: int64(len(st.free)) * size}
	return versions, st.held, free
}
