(** Small numeric and array helpers shared across the library. *)

val clamp : lo:float -> hi:float -> float -> float

val clamp_int : lo:int -> hi:int -> int -> int

val approx_equal : ?eps:float -> float -> float -> bool
(** Mixed absolute/relative comparison: [|a−b| ≤ eps·max(1,|a|,|b|)].
    Default [eps = 1e-9]. *)

val linspace : float -> float -> int -> float array
(** [linspace lo hi n] is [n ≥ 2] evenly spaced points from [lo] to [hi]
    inclusive. *)

val logspace : float -> float -> int -> float array
(** Geometrically spaced points from [lo] to [hi] (both positive). *)

val int_range : int -> int -> int array
(** [int_range lo hi] is [|lo; lo+1; …; hi|] ([||] if [hi < lo]). *)

val argmax : ('a -> float) -> 'a array -> int
(** Index of the first maximiser of [f]; raises [Invalid_argument] on an
    empty array. *)

val argmin : ('a -> float) -> 'a array -> int

val sum_floats : float array -> float

val geometric_sum : float -> int -> float
(** [geometric_sum r k] is Σ_{j=0}^{k−1} r^j, computed stably including at
    [r = 1]. *)

val fold_range : int -> int -> init:'a -> f:('a -> int -> 'a) -> 'a
(** [fold_range lo hi ~init ~f] folds [f] over the inclusive integer range. *)

val fnv1a64 : string -> int64
(** 64-bit FNV-1a hash of the string.  Deterministic across runs and
    platforms (unlike [Hashtbl.hash]), so it is safe to persist — the
    runner's result cache addresses files by it. *)

val hex64 : int64 -> string
(** 16-digit lower-case hex rendering of a 64-bit value. *)

val sort_prefix : int array -> int -> unit
(** [sort_prefix a len] sorts [a.(0)] … [a.(len − 1)] ascending in place
    and leaves the rest of [a] untouched.  It never allocates: insertion
    sort up to 32 elements, heapsort above.
    @raise Invalid_argument unless [0 ≤ len ≤ Array.length a]. *)
