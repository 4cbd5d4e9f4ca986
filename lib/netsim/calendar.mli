(** Slot-ring calendar queue: the event calendar of the spatial
    simulator's event core.

    Events are plain [int] keys scheduled at integer slots.  Every push
    lands strictly after the current slot and at most [reach] slots ahead
    of it, so a ring of [W] slot heads ([W] the smallest power of two
    above [reach]) addresses each pending slot without aliasing.  Each
    slot head is a singly linked list of cells drawn from one pooled
    [int] array with a free list: storage is O(cells + W), and once the
    pool and the drain buffer have grown to their working size, [push]
    and [take] allocate nothing.

    {!take} drains one whole slot at a time and hands its keys back in
    ascending order, so a caller that packs a tie-break order into the key
    (the simulator packs [kind·n + node id]) pops events by (slot, key) —
    the order a min-heap over [slot·K + key] would give, duplicates
    included.

    Pushing outside the window raises instead of wrapping silently.  The
    structure is not thread-safe; use one calendar per run. *)

type t

val create : reach:int -> capacity:int -> t
(** [create ~reach ~capacity] is an empty calendar whose current slot is
    [-1], accepting pushes up to [reach] slots ahead of the current slot.
    [capacity] pre-sizes the cell pool, which doubles when exhausted.
    @raise Invalid_argument when [reach < 1] or [capacity < 1]. *)

val window : t -> int
(** Ring size [W]: a power of two greater than [reach].  Pushes may land
    1 … [W − 1] slots ahead of {!now}. *)

val now : t -> int
(** The slot last returned by {!take} ([-1] before the first). *)

val pending : t -> int
(** Events pushed and not yet taken. *)

val is_empty : t -> bool

val push : t -> int -> int -> unit
(** [push t slot key] schedules [key] at [slot].
    @raise Invalid_argument unless [1 ≤ slot − now t ≤ window t − 1]: the
    slot being drained and slots a full ring ahead are both refused. *)

val take : t -> int
(** Advance {!now} to the earliest slot holding events, remove all of
    them and return that slot.  Its keys stay readable, sorted ascending,
    through {!due_count} and {!due} until the next [take]; pushes made
    while reading them go to later slots and do not disturb them.
    @raise Invalid_argument when the calendar is empty. *)

val due_count : t -> int
(** Number of keys the last {!take} removed (0 before the first). *)

val due : t -> int -> int
(** [due t k] is the [k]-th smallest key of the last {!take}, for
    [0 ≤ k < due_count t]. *)
