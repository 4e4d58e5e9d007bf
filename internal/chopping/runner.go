package chopping

import (
	"fmt"

	"drtm/internal/tx"
)

// PieceFunc executes one piece as a transaction on the executor. The piece
// index and parent ID are available for logging and idempotence.
type PieceFunc func(e *tx.Executor, t *tx.Tx) error

// Run executes a chopped transaction: each piece runs as its own
// transaction (its own HTM region), with chopping information logged ahead
// of every piece so recovery can resume from the right one (Section 4.6).
// Per the restriction in Section 3, a user abort is honored only from the
// first piece; in a later piece it is an error.
func Run(e *tx.Executor, parentID uint64, pieces []PieceFunc) error {
	return Resume(e, parentID, pieces, 0)
}

// Resume re-runs the pieces of a recovered parent starting at piece `from`
// (obtained from the chopping log via tx.RecoveryReport.PendingPieces). The
// pieces keep their numbers: piece from+k logs itself as from+k, and only
// piece 0 may abort.
func Resume(e *tx.Executor, parentID uint64, pieces []PieceFunc, from int) error {
	if from < 0 || from > len(pieces) {
		return fmt.Errorf("chopping: resume index %d out of range", from)
	}
	for i := from; i < len(pieces); i++ {
		piece := pieces[i]
		err := e.Exec(func(t *tx.Tx) error {
			t.SetChoppingInfo(parentID, uint64(i))
			return piece(e, t)
		})
		if err == nil {
			continue
		}
		if err == tx.ErrUserAbort {
			if i == 0 {
				return tx.ErrUserAbort
			}
			return fmt.Errorf("chopping: piece %d of parent %d aborted after the first piece: %w",
				i, parentID, err)
		}
		return err
	}
	return nil
}
