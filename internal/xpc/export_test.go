package xpc

// The shared-object half of the paper's object model that only this
// package's tests reach. ROADMAP item 3 deletes the object model as a whole
// (Share, the trackers, the Masked/Full codecs); until then its release
// path lives here, beside the tests that pin it.

// Unshare releases every tracker association for a kernel object, after
// which the decaf-side object is collectable. It reports whether the object
// was shared.
func (r *Runtime) Unshare(kernelObj any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range r.shared {
		if s.kernelObj == kernelObj {
			kptr, typ, _ := r.LibTracker.LookupC(s.libObj)
			lptr, _, _ := r.DecafTracker.LookupC(s.decafObj)
			r.LibTracker.Release(kptr, typ)
			r.DecafTracker.Release(lptr, typ)
			r.shared = append(r.shared[:i], r.shared[i+1:]...)
			return true
		}
	}
	return false
}
