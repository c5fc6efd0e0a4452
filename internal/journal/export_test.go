package journal

// White-box hooks for store_test.go, which lives in package journal_test so
// it can run the suite over the real codecs (superopt and buildsvc import
// this package).

// LogStats returns the journal's accounting under a persistent store.
func (s *Store[V]) LogStats() Stats { return s.log.Stats() }

// Uncompacted returns the journal records a compaction would fold.
func (s *Store[V]) Uncompacted() int { return s.log.Records() }

// AppendFrame is the record framing, for tests that hand-build blobs.
var AppendFrame = appendFrame
