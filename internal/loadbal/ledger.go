package loadbal

// The root's dead-rank recovery ledger of a multi-process run. Scatter
// deals tasks whose IDs are their indices, so the ledger is three slices
// indexed by task ID: the deal flattened, each task's current owner, and
// the completions seen.

// ledger tracks which rank owns each unfinished task.
type ledger struct {
	tasks []Task
	owner []int32
	done  []bool
}

func newLedger(deal [][]Task, total int) *ledger {
	l := &ledger{tasks: make([]Task, total), owner: make([]int32, total), done: make([]bool, total)}
	for r, share := range deal {
		for _, t := range share {
			l.tasks[t.ID] = t
			l.owner[t.ID] = int32(r)
		}
	}
	return l
}

// note folds one control message from a rank of a ranks-wide world into
// the ledger: a grant acknowledgement (tagMoved) moves the task to its
// new owner; a completion retires it, and first reports whether it is the
// task's first — a re-queued task may complete twice.
func (l *ledger) note(tag int, b []byte, ranks int) (first bool, err error) {
	if tag == tagMoved {
		id, owner, err := decodeMoved(b, len(l.tasks), ranks)
		if err == nil {
			l.owner[id] = owner
		}
		return false, err
	}
	id, err := decodeComplete(b, len(l.tasks))
	if err != nil {
		return false, err
	}
	first = !l.done[id]
	l.done[id] = true
	return first, nil
}

// requeue hands every unfinished task of a dead rank to rank to and
// returns them in ascending ID order.
func (l *ledger) requeue(dead, to int) []Task {
	var out []Task
	for id, own := range l.owner {
		if int(own) == dead && !l.done[id] {
			l.owner[id] = int32(to)
			out = append(out, l.tasks[id])
		}
	}
	return out
}
