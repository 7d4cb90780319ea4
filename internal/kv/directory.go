package kv

import (
	"fmt"

	"yesquel/internal/wire"
)

// Directory is the slot→group map every server and client routes by,
// fixed when the cluster forms: an OID's route index is
// `slot % len(Routes)`, and Routes[route] names the group that owns
// every OID on that route, so the placement the DBT computed when it
// allocated an OID holds for the cluster's lifetime.
//
// Groups[g] lists group g's replica addresses, acting primary first —
// the same shape as an epoch membership list, and like it advisory: the
// authoritative membership of a group is its epoch state, learned
// through ErrWrongEpoch redirects and ack piggybacks. The directory
// only says which group to talk to, not who currently leads it.
//
// Version 0 is the identity directory every store and client is born
// with (a store: one route, its own group; a client: one route per
// group it was opened with); the cluster installs version 1 on every
// member at formation. A holder adopts only a larger version, so a
// directory never moves backwards. Servers reject requests for routes
// another group owns with the typed WrongSlotError and serve the map
// via MethodDirectory.
type Directory struct {
	Version uint64
	Routes  []uint32   // route index (slot % len(Routes)) → group index
	Groups  [][]string // group index → replica addresses, primary first
}

// IdentityDirectory returns the version-0 directory over n groups:
// route i is owned by group i, and the groups' address lists are empty
// until the holder fills them in.
func IdentityDirectory(n int) *Directory {
	d := &Directory{Routes: make([]uint32, n), Groups: make([][]string, n)}
	for i := range d.Routes {
		d.Routes[i] = uint32(i)
	}
	return d
}

// maxRoutes bounds a decoded route table (sanity, not policy — real
// directories have one route per initial server).
const maxRoutes = 1 << 16

// RouteFor returns the directory route index oid maps to.
func (d *Directory) RouteFor(oid OID) uint32 {
	return uint32(int(oid.Slot()) % len(d.Routes))
}

// GroupFor returns the index of the group that owns oid.
func (d *Directory) GroupFor(oid OID) uint32 {
	return d.Routes[d.RouteFor(oid)]
}

// Clone returns a deep copy of d (nil-safe), so an installed directory
// can be shared read-only while the authority mutates its own copy.
func (d *Directory) Clone() *Directory {
	if d == nil {
		return nil
	}
	out := &Directory{
		Version: d.Version,
		Routes:  append([]uint32(nil), d.Routes...),
		Groups:  make([][]string, len(d.Groups)),
	}
	for i, g := range d.Groups {
		out.Groups[i] = append([]string(nil), g...)
	}
	return out
}

func (d *Directory) wire(c *wire.Codec) {
	c.Uvarint(&d.Version)
	wire.Slice(c, &d.Routes, wire.MinLen)
	if n := len(d.Routes); c.Decoding() && (n == 0 || n > maxRoutes) {
		c.Fail(fmt.Errorf("%w: directory with %d routes", ErrBadRequest, n))
	}
	for i := range d.Routes {
		g := uint64(d.Routes[i])
		if c.Uvarint(&g); c.Decoding() {
			d.Routes[i] = uint32(g)
		}
	}
	wire.Slice(c, &d.Groups, wire.MinLen)
	if c.Decoding() && len(d.Groups) > maxRoutes {
		c.Fail(fmt.Errorf("%w: directory with %d groups", ErrBadRequest, len(d.Groups)))
	}
	for i := range d.Groups {
		wireMembers(c, &d.Groups[i])
	}
	for _, g := range d.Routes {
		if int(g) >= len(d.Groups) && c.Decoding() {
			c.Fail(fmt.Errorf("%w: route names group %d of %d", ErrBadRequest, g, len(d.Groups)))
		}
	}
}

// EncodeDirectory appends d's canonical serialization to b.
func EncodeDirectory(b *wire.Buffer, d *Directory) { wire.EncodeTo(b, d, (*Directory).wire) }

// DecodeDirectory is the inverse of EncodeDirectory. Trailing bytes are
// left unread: messages embed a directory and continue after it.
func DecodeDirectory(r *wire.Reader) (*Directory, error) {
	d := new(Directory)
	return d, wire.DecodeFrom(r, d, ErrBadRequest, (*Directory).wire)
}

// DirectoryResp is the MethodDirectory response: the server's current
// directory plus the usual clock piggyback. The request is empty.
type DirectoryResp struct {
	Dir   *Directory
	Clock Timestamp
}

func (m *DirectoryResp) wire(c *wire.Codec) {
	if c.Decoding() {
		m.Dir = new(Directory)
	}
	m.Dir.wire(c)
	wire.U64(c, &m.Clock)
}

func (m *DirectoryResp) AppendTo(b *wire.Buffer) {
	b.PutUvarint(uint64(wire.Size(m, (*DirectoryResp).wire)))
	wire.EncodeTo(b, m, (*DirectoryResp).wire)
}

func DecodeDirectoryResp(p []byte) (*DirectoryResp, error) {
	return decode(p, (*DirectoryResp).wire)
}
