type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64 output function: advance by the golden gamma, then apply the
   variant-13 mix of the counter.  Inlined into its callers so the mixed
   output stays unboxed; only the state update allocates. *)
let[@inline] bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  (* The mixed output seeds the child; mixing prevents correlated lattices
     between parent and child streams. *)
  { state = bits64 t }

let of_key ~seed key =
  (* A stream derived from (seed, key) alone: equal pairs give equal
     streams regardless of task submission order or worker interleaving,
     which is what makes parallel sweeps bit-identical to serial ones.
     The FNV hash of the key is xored into a gamma-scaled seed; SplitMix's
     output mixing takes care of any residual structure. *)
  {
    state =
      Int64.logxor
        (Int64.mul (Int64.of_int seed) golden_gamma)
        (Util.fnv1a64 key);
  }

(* 62 uniform bits as a non-negative OCaml int. *)
let bits t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

(* Rejection sampling below the largest multiple of [bound]; a top-level
   loop rather than a local closure, so a draw allocates no environment. *)
let rec draw_below t bound limit =
  let v = bits t in
  if v >= limit then draw_below t bound limit else v mod bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let max = (1 lsl 62) - 1 in
  draw_below t bound (max - (max mod bound))

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t x =
  (* 53 random bits scaled to [0,1), as in the stdlib. *)
  let b = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  x *. (b *. 0x1p-53)

let float_in t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let exponential t rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  let rec positive () =
    let u = float t 1.0 in
    if u > 0. then u else positive ()
  in
  -.log (positive ()) /. rate

let normal t ~mean ~stddev =
  let rec positive () =
    let u = float t 1.0 in
    if u > 0. then u else positive ()
  in
  let u1 = positive () and u2 = float t 1.0 in
  let r = sqrt (-2. *. log u1) in
  mean +. (stddev *. r *. cos (2. *. Float.pi *. u2))

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
