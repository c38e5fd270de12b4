// Package vm models the virtual-memory substrate of the wafer-scale GPU:
// 64-bit virtual and physical addresses, page table entries, the one page
// table per wafer (GMMU local tables are owner views of it; walk cost lives
// in config), and the zero-copy block placement that evenly partitions
// allocations across GPMs (§II-A).
package vm

import "fmt"

// VAddr is a virtual byte address.
type VAddr uint64

// PAddr is a physical byte address.
type PAddr uint64

// VPN is a virtual page number.
type VPN uint64

// PFN is a physical frame number.
type PFN uint64

// PID identifies a process / address space. The simulated GPU runs one
// kernel at a time, but the structures carry the PID because the redirection
// table stores (PID, VPN) pairs (§IV-F).
type PID uint32

// PageSize describes the system page size in bytes; must be a power of two.
type PageSize uint64

// Standard page sizes evaluated in Fig 20.
const (
	Page4K  PageSize = 4 << 10
	Page16K PageSize = 16 << 10
	Page64K PageSize = 64 << 10
)

// Shift returns log2 of the page size.
func (s PageSize) Shift() uint {
	sh := uint(0)
	for v := uint64(s); v > 1; v >>= 1 {
		sh++
	}
	return sh
}

// VPNOf extracts the virtual page number of a.
func (s PageSize) VPNOf(a VAddr) VPN { return VPN(uint64(a) >> s.Shift()) }

// Base returns the first byte address of page v.
func (s PageSize) Base(v VPN) VAddr { return VAddr(uint64(v) << s.Shift()) }

// Offset returns the in-page offset of a.
func (s PageSize) Offset(a VAddr) uint64 { return uint64(a) & (uint64(s) - 1) }

// Translate combines a frame number with the page offset of a.
func (s PageSize) Translate(a VAddr, f PFN) PAddr {
	return PAddr(uint64(f)<<s.Shift() | s.Offset(a))
}

// PTE is a page table entry. Owner records which GPM's HBM stack holds the
// frame, which the zero-copy model needs to route data accesses; hardware
// encodes this in the PFN range, we keep it explicit for clarity.
type PTE struct {
	VPN   VPN
	PFN   PFN
	PID   PID
	Owner int // GPM index owning the physical frame
	Valid bool
}

func (p PTE) String() string {
	return fmt.Sprintf("PTE{v:%#x p:%#x gpm:%d}", uint64(p.VPN), uint64(p.PFN), p.Owner)
}
