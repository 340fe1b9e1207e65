package charm

import "fmt"

// reducerState is the chare behind NewReducer.
type reducerState struct {
	expected int
	target   ObjID
	entry    EntryID
	got      map[int]int
}

// reduceEntryName is the entry used by all reducers.
const reduceEntryName = "charm.reduce.contribute"

// reduceMsg is one contribution, tagged so that contributions from
// different iterations (e.g. timesteps) never mix.
type reduceMsg struct {
	Tag int
}

// ensureReduceEntry lazily registers the shared reducer entry.
func (rt *Runtime) ensureReduceEntry() EntryID {
	if rt.reduceEntry >= 0 {
		return rt.reduceEntry
	}
	rt.reduceEntry = rt.RegisterEntry(reduceEntryName, func(c *Ctx, obj any, payload any, size int) {
		st := obj.(*reducerState)
		tag := payload.(reduceMsg).Tag
		st.got[tag]++
		if st.got[tag] < st.expected {
			return
		}
		delete(st.got, tag)
		c.Send(st.target, st.entry, tag, 16, 0)
	})
	return rt.reduceEntry
}

// NewReducer creates a counting reducer on the given processor: after
// `expected` contributions with the same tag (via Contribute), it invokes
// `entry` on `target` with the tag as payload. Reducers are the
// coordination primitive Charm++ programs use for per-step barriers and
// energy reductions.
func (rt *Runtime) NewReducer(pe, expected int, target ObjID, entry EntryID) ObjID {
	if expected <= 0 {
		panic(fmt.Sprintf("charm: reducer with expected = %d", expected))
	}
	rt.ensureReduceEntry()
	st := &reducerState{expected: expected, target: target, entry: entry, got: map[int]int{}}
	return rt.CreateObj(pe, st, false)
}

// Contribute sends one tagged contribution to a reducer from inside an
// entry method.
func (c *Ctx) Contribute(reducer ObjID, tag int) {
	e := c.RT.ensureReduceEntry()
	c.Send(reducer, e, reduceMsg{Tag: tag}, 16, 0)
}

// ContributeInject seeds a contribution from outside the machine (before
// Run), e.g. for tests.
func (rt *Runtime) ContributeInject(reducer ObjID, tag int) {
	e := rt.ensureReduceEntry()
	rt.Inject(reducer, e, reduceMsg{Tag: tag}, 16, 0)
}
