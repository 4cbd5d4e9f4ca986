let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

let clamp_int ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

let approx_equal ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let linspace lo hi n =
  if n < 2 then invalid_arg "Util.linspace: need at least two points";
  let step = (hi -. lo) /. float_of_int (n - 1) in
  Array.init n (fun i -> lo +. (float_of_int i *. step))

let logspace lo hi n =
  if lo <= 0. || hi <= 0. then invalid_arg "Util.logspace: bounds must be positive";
  Array.map exp (linspace (log lo) (log hi) n)

let int_range lo hi =
  if hi < lo then [||] else Array.init (hi - lo + 1) (fun i -> lo + i)

let argmax f a =
  if Array.length a = 0 then invalid_arg "Util.argmax: empty array";
  let best = ref 0 and best_v = ref (f a.(0)) in
  for i = 1 to Array.length a - 1 do
    let v = f a.(i) in
    if v > !best_v then begin
      best := i;
      best_v := v
    end
  done;
  !best

let argmin f a = argmax (fun x -> -.f x) a

let sum_floats = Array.fold_left ( +. ) 0.

let geometric_sum r k =
  if k <= 0 then 0.
  else if approx_equal r 1. then float_of_int k
  else (1. -. (r ** float_of_int k)) /. (1. -. r)

let fold_range lo hi ~init ~f =
  let rec go acc i = if i > hi then acc else go (f acc i) (i + 1) in
  go init lo

(* FNV-1a, the 64-bit variant: a tiny, well-distributed string hash used
   to content-address cached experiment results and to derive per-task RNG
   streams.  Stable across runs and platforms, unlike [Hashtbl.hash]. *)
let fnv1a64 s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  !h

let hex64 h = Printf.sprintf "%016Lx" h

(* Max-heap sift of [a.(root)] within the prefix [a.(0..len-1)]. *)
let sift_down (a : int array) root len =
  let v = a.(root) in
  let i = ref root and sinking = ref true in
  while !sinking do
    let c = (2 * !i) + 1 in
    if c >= len then sinking := false
    else begin
      let c = if c + 1 < len && a.(c + 1) > a.(c) then c + 1 else c in
      if a.(c) > v then begin
        a.(!i) <- a.(c);
        i := c
      end
      else sinking := false
    end
  done;
  a.(!i) <- v

(* Insertion sort is the fast path (a calendar slot or a neighbourhood
   holds a few dozen ints); heapsort bounds the rare large prefix at
   O(len log len).  Neither allocates. *)
let sort_prefix (a : int array) len =
  if len < 0 || len > Array.length a then
    invalid_arg "Util.sort_prefix: length out of bounds";
  if len <= 32 then
    for i = 1 to len - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  else begin
    for root = (len / 2) - 1 downto 0 do
      sift_down a root len
    done;
    for last = len - 1 downto 1 do
      let top = a.(0) in
      a.(0) <- a.(last);
      a.(last) <- top;
      sift_down a 0 last
    done
  end
