package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"gqr"
)

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			// A background persist may retire a log between the listing and
			// the open; a crash at this instant would not have seen it either.
			if os.IsNotExist(err) {
				continue
			}
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// recoverDurable is the crash of the mixed workload: the data directory is
// copied while the index is still open and never closed, the index is
// recovered from the copy several times, and the first recovery is checked
// against the model. It returns the midmean recovery.
func (r *run) recoverDurable() (time.Duration, error) {
	var took []float64
	for i := 0; i < r.sz.recoveries; i++ {
		dst := filepath.Join(r.dir, fmt.Sprintf("crash-%d", i))
		if err := copyDir(r.dataDir, dst); err != nil {
			return 0, fmt.Errorf("copy data directory: %w", err)
		}
		start := time.Now()
		ix, err := gqr.Recover(dst, r.base, r.w.dim)
		if err != nil {
			return 0, fmt.Errorf("recover: %w", err)
		}
		took = append(took, time.Since(start).Seconds())
		if i == 0 {
			r.checkRecovered(ix, r.model)
		}
		ix.Close()
		os.RemoveAll(dst)
	}
	return time.Duration(midmean(took) * float64(time.Second)), nil
}

// checkRecovered holds a recovered index to the durability contract: every
// acknowledged add is found at distance zero under its id, and no
// acknowledged delete is ever returned. It checks every id that a write
// touched: all added ids and all deleted ones.
func (r *run) checkRecovered(ix *gqr.Index, model *oracle) {
	r.attempted++
	if st := ix.Stats(); st.Items != model.items() || st.LiveItems != len(model.live) {
		r.fail(1, fmt.Errorf("recovered index holds %d items, %d live; model says %d, %d",
			st.Items, st.LiveItems, model.items(), len(model.live)))
	}
	for id := 0; id < model.items(); id++ {
		if id < r.n() && !model.dead[id] {
			continue // an untouched base vector
		}
		r.attempted++
		nbrs, err := ix.Search(model.row(id), 1, gqr.WithMaxCandidates(r.maxCand()))
		if err != nil {
			r.fail(1, fmt.Errorf("recovered index: search for id %d: %w", id, err))
			continue
		}
		found := len(nbrs) == 1 && nbrs[0].ID == id
		switch {
		case model.dead[id] && found:
			r.fail(1, fmt.Errorf("acknowledged delete of id %d is back after recovery", id))
		case !model.dead[id] && !(found && nbrs[0].Distance == 0):
			r.fail(1, fmt.Errorf("acknowledged add of id %d is missing after recovery", id))
		}
	}
}
