package store

// SetWALBudgetFloor lowers the WAL budget's floor of a store Open
// returned, so the external model harness reaches the budget with small
// writes. Call it before Recover.
func SetWALBudgetFloor(st Store, floor int64) { st.(*fileStore).budgetFloor = floor }

// WALBudgetPerFull is walBudgetPerFull: the WAL budget's multiple of the
// base's bytes, and how many sketch-only checkpoints may name one base.
const WALBudgetPerFull = walBudgetPerFull
