// Fixture: WAL-style batch completion (rule a) and rename installation
// (rule c) in a store-suffixed package.
package store

import "os"

type batch struct {
	done chan struct{}
	err  error
}

type wal struct{ batches []*batch }

// force is the durability point; its name is in the force family.
func (w *wal) force(b *batch) error { return nil }

// forceViaHelper always forces: the summary makes its call sites count.
func (w *wal) forceViaHelper(b *batch) error { return w.force(b) }

func (w *wal) flushGood(b *batch) {
	b.err = w.force(b)
	close(b.done)
}

func (w *wal) flushViaHelper(b *batch) {
	b.err = w.forceViaHelper(b)
	close(b.done)
}

func (w *wal) flushBad(b *batch) {
	close(b.done) // want "reachable without a dominating force"
	b.err = w.force(b)
}

func (w *wal) flushConditional(b *batch, fast bool) {
	if !fast {
		b.err = w.force(b)
	}
	close(b.done) // want "reachable without a dominating force"
}

func (w *wal) flushBothBranches(b *batch, fast bool) {
	if fast {
		b.err = w.forceViaHelper(b)
	} else {
		b.err = w.force(b)
	}
	close(b.done)
}

// Early error returns are neutral: the happy path is still dominated.
func (w *wal) flushEarlyReturn(b *batch) error {
	if err := w.force(b); err != nil {
		return err
	}
	close(b.done)
	return nil
}

func syncDir(dir string) error { return nil }

func installGood(name, target, dir string) error {
	if err := os.Rename(name, target); err != nil {
		return err
	}
	return syncDir(dir)
}

func installBad(name, target string) error {
	return os.Rename(name, target) // want "no directory fsync"
}

func suppressedInstall(name, target string) error {
	//mcalint:ignore forceorder fixture: target dir is fsynced by the caller
	return os.Rename(name, target)
}

// --- the log-structured append path: object batches and intentions
// share one log, waiters are woken only after its force, and a forget
// is appended without waking or waiting for anyone ---

type logFile struct{ path, dir string }

// appendSync is the log's durability point (one write, one fsync); its
// name is in the force family.
func (lf *logFile) appendSync(frames []byte) error { return nil }

type logWAL struct {
	log *logFile
	cur *batch
}

func (w *logWAL) install(b *batch) {}

// Force, then install into the cache, then wake the appenders.
func (w *logWAL) flushGood(b *batch, frames []byte) {
	b.err = w.log.appendSync(frames)
	if b.err == nil {
		w.install(b)
	}
	close(b.done)
}

// Installing before the force is the cache's problem; waking before it
// is a durability bug.
func (w *logWAL) flushWakesBeforeForce(b *batch, frames []byte) {
	w.install(b)
	close(b.done) // want "reachable without a dominating force"
	b.err = w.log.appendSync(frames)
}

// A batch of lazy forgets has no waiters, but skipping its force on
// that ground still completes the batch unforced.
func (w *logWAL) flushSkipsLazyOnly(b *batch, frames []byte, lazyOnly bool) {
	if !lazyOnly {
		b.err = w.log.appendSync(frames)
	}
	close(b.done) // want "reachable without a dominating force"
}

// A lazy forget joins the open batch and returns: nothing to wake, so
// nothing to dominate.
func (w *logWAL) forgetLazy() {
	if w.cur == nil {
		w.cur = &batch{done: make(chan struct{})}
	}
}

// Compaction replaces the log by rename: still paired with syncDir.
func (lf *logFile) compactGood(tmp string) error {
	if err := os.Rename(tmp, lf.path); err != nil {
		return err
	}
	return syncDir(lf.dir)
}

func (lf *logFile) compactBad(tmp string) error {
	if err := os.Rename(tmp, lf.path); err != nil { // want "no directory fsync"
		return err
	}
	_, err := os.OpenFile(lf.path, os.O_WRONLY|os.O_APPEND, 0o644)
	return err
}
