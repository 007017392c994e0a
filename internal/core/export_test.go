package core

import "unsafe"

// ExecTableBytes is the size of x's first-level translation tables, for
// the external tests that run whole kernels.
func ExecTableBytes(x *Exec) int {
	return len(x.utab.slots)*int(unsafe.Sizeof(uslot{})) + len(x.btab.slots)*int(unsafe.Sizeof(bslot{}))
}
