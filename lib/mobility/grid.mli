(** Uniform-grid spatial index over node positions.

    Buckets node ids into square cells of a fixed size so that range
    queries (carrier sense, interference neighbourhoods) touch O(local
    density) candidates instead of all n nodes.  Membership is explicit:
    ids are [add]ed, [remove]d and [move]d individually, so the same
    structure serves both a static node index (filled once) and a sparse
    airborne-transmitter set (members come and go per frame).

    Queries return a {e superset} of the requested disk — the cells
    overlapping the padded bounding square — and callers apply the exact
    {!Geom.within} predicate.  {!neighbourhoods} does that filtering for
    every id at once; {!query} does it for one id and is the reference
    for the property tests; {!iter_candidates} leaves it to the caller's
    hot loop.

    The structure is not thread-safe; shard it (one grid per domain)
    rather than sharing it. *)

type t

val create : ?fill:bool -> cell:float -> Geom.point array -> t
(** [create ~cell points] indexes [points] into cells of side [cell];
    point [i] keeps id [i].  [fill] (default true) inserts every id;
    [~fill:false] builds an empty index over the same coordinates (the
    airborne set).  Cell count is derived from the coordinate extent.

    @raise Invalid_argument on a non-positive [cell] or negative
    coordinates (the grid origin is pinned at (0,0)). *)

val length : t -> int
(** Number of ids (present or not). *)

val cell_size : t -> float

val position : t -> int -> Geom.point
(** Current coordinates of id [i] (tracked even while absent). *)

val add : t -> int -> unit
(** Insert id [i] at its current coordinates; no-op when present. *)

val remove : t -> int -> unit
(** Delete id [i] (swap-remove within its bucket); no-op when absent. *)

val mem : t -> int -> bool

val move : t -> int -> Geom.point -> unit
(** Update id [i]'s coordinates, re-bucketing only when the cell actually
    changes — the incremental path for waypoint walkers, counted by
    {!rebuckets}.  An absent id just has its coordinates updated.

    @raise Invalid_argument on negative coordinates. *)

val iter_candidates : t -> radius:float -> int -> (int -> unit) -> unit
(** [iter_candidates t ~radius i f] applies [f] to every {e present} id
    in the cells overlapping the padded square of half-width [radius]
    around id [i]'s coordinates ([i] itself need not be present, and is
    offered when it is) — a superset of the ids within [radius]; the
    caller filters exactly.  Ids offered (pre-filter) accumulate into
    {!candidates}.

    @raise Invalid_argument on a negative radius. *)

val neighbourhoods :
  t -> range:float -> cs_range:float -> int array array * int array
(** [neighbourhoods t ~range ~cs_range] is [(hoods, decode)]: [hoods.(i)]
    holds the present ids other than [i] within [cs_range] of it by the
    exact {!Geom.within} test — first the [decode.(i)] of them within
    [range], ascending, then the rest, ascending.  The decode prefix and
    the whole array are the unit-disk neighbour sets of
    [Netsim.Spatial.run_grid] (equal to {!Topology.adjacency} of the same
    coordinates at [range] and at [cs_range] when every id is present),
    stored as one array per id.  Built from {!iter_candidates} through
    one reused buffer: the only allocations are the result arrays.

    @raise Invalid_argument on a negative [range] or [cs_range < range]. *)

val query : t -> radius:float -> int -> int list
(** Present ids within exactly [radius] ({!Geom.within}) of id [i],
    excluding [i] itself, in increasing order.  Allocates a point per
    candidate and sorts a list: it is the test oracle for
    {!neighbourhoods} (and for the index against a brute-force scan), not
    a production path. *)

val candidates : t -> int
(** Cumulative ids offered to query callbacks (pre-filter), the measure of
    how selective the cells are. *)

val rebuckets : t -> int
(** Cumulative cell crossings performed by {!move}. *)
