type t = {
  cell : float;
  cols : int;
  rows : int;
  xs : float array;
  ys : float array;
  cell_idx : int array; (* current cell of each id, -1 when absent *)
  slot_idx : int array; (* position inside that cell's bucket *)
  buckets : int array array; (* members as a dense prefix of each row *)
  lens : int array;
  mutable candidates : int;
  mutable rebuckets : int;
}

(* Inlined so that the float coordinate never crosses a call boundary,
   where it would be boxed: cell lookups sit on the airborne grid's
   per-attempt path. *)
let[@inline] floor_div t v =
  let c = int_of_float (Float.floor (v /. t.cell)) in
  if c < 0 then 0 else c

let[@inline] col_of t x = Int.min (t.cols - 1) (floor_div t x)
let[@inline] row_of t y = Int.min (t.rows - 1) (floor_div t y)
let cell_of t i = (row_of t t.ys.(i) * t.cols) + col_of t t.xs.(i)

let bucket_push t b i =
  let len = t.lens.(b) in
  let bucket = t.buckets.(b) in
  let bucket =
    if len < Array.length bucket then bucket
    else begin
      let grown = Array.make (Stdlib.max 4 (2 * len)) 0 in
      Array.blit bucket 0 grown 0 len;
      t.buckets.(b) <- grown;
      grown
    end
  in
  bucket.(len) <- i;
  t.lens.(b) <- len + 1;
  t.cell_idx.(i) <- b;
  t.slot_idx.(i) <- len

let add t i =
  if t.cell_idx.(i) < 0 then bucket_push t (cell_of t i) i

let remove t i =
  let b = t.cell_idx.(i) in
  if b >= 0 then begin
    let last = t.lens.(b) - 1 in
    let s = t.slot_idx.(i) in
    let mover = t.buckets.(b).(last) in
    t.buckets.(b).(s) <- mover;
    t.slot_idx.(mover) <- s;
    t.lens.(b) <- last;
    t.cell_idx.(i) <- -1
  end

let mem t i = t.cell_idx.(i) >= 0

let create ?(fill = true) ~cell points =
  if cell <= 0. then invalid_arg "Grid.create: cell must be positive";
  let n = Array.length points in
  let maxx = ref 0. and maxy = ref 0. in
  Array.iter
    (fun (p : Geom.point) ->
      if p.x < 0. || p.y < 0. then
        invalid_arg "Grid.create: coordinates must be non-negative";
      if p.x > !maxx then maxx := p.x;
      if p.y > !maxy then maxy := p.y)
    points;
  let extent v = 1 + int_of_float (Float.floor (v /. cell)) in
  let cols = extent !maxx and rows = extent !maxy in
  let t =
    {
      cell;
      cols;
      rows;
      xs = Array.map (fun (p : Geom.point) -> p.x) points;
      ys = Array.map (fun (p : Geom.point) -> p.y) points;
      cell_idx = Array.make n (-1);
      slot_idx = Array.make n 0;
      buckets = Array.make (cols * rows) [||];
      lens = Array.make (cols * rows) 0;
      candidates = 0;
      rebuckets = 0;
    }
  in
  if fill then
    for i = 0 to n - 1 do
      add t i
    done;
  t

let length t = Array.length t.xs
let cell_size t = t.cell
let position t i = { Geom.x = t.xs.(i); y = t.ys.(i) }

let move t i (p : Geom.point) =
  if p.x < 0. || p.y < 0. then
    invalid_arg "Grid.move: coordinates must be non-negative";
  t.xs.(i) <- p.x;
  t.ys.(i) <- p.y;
  let old = t.cell_idx.(i) in
  if old >= 0 then begin
    let fresh = cell_of t i in
    if fresh <> old then begin
      remove t i;
      bucket_push t fresh i;
      t.rebuckets <- t.rebuckets + 1
    end
  end

(* The candidate box is the padded axis-aligned square of half-width
   [radius] around id [i]'s coordinates: a superset of the disk, so
   callers filter with an exact predicate.  The pad absorbs the rounding
   of [x -. radius] against a bucket boundary — a member at distance
   exactly [radius] can otherwise fall one cell outside a box computed in
   floats.  Centring on an id keeps the coordinates unboxed. *)
let iter_candidates t ~radius i f =
  if radius < 0. then invalid_arg "Grid.iter_candidates: negative radius";
  let x = t.xs.(i) and y = t.ys.(i) in
  let r = radius +. (t.cell *. 1e-9) in
  let c0 = col_of t (x -. r) and c1 = col_of t (x +. r) in
  let r0 = row_of t (y -. r) and r1 = row_of t (y +. r) in
  let offered = ref 0 in
  for row = r0 to r1 do
    let base = row * t.cols in
    for col = c0 to c1 do
      let b = base + col in
      let bucket = t.buckets.(b) in
      let len = t.lens.(b) in
      offered := !offered + len;
      for k = 0 to len - 1 do
        f bucket.(k)
      done
    done
  done;
  t.candidates <- t.candidates + !offered

(* Same arithmetic as [Geom.within], on the unboxed coordinate arrays. *)
let[@inline] within t ~range2 i j =
  let dx = t.xs.(i) -. t.xs.(j) and dy = t.ys.(i) -. t.ys.(j) in
  (dx *. dx) +. (dy *. dy) <= range2

let query t ~radius i =
  let p = position t i in
  let acc = ref [] in
  iter_candidates t ~radius i (fun j ->
      if j <> i && Geom.within ~range:radius p (position t j) then
        acc := j :: !acc);
  List.sort_uniq compare !acc

(* One staging buffer and one candidate callback serve every id: the
   carrier-sense disk is filtered exactly as it streams out of the cells,
   sorted in place, then copied once at its exact size with the decode
   disk moved to the front. *)
let neighbourhoods t ~range ~cs_range =
  if range < 0. then invalid_arg "Grid.neighbourhoods: negative range";
  if cs_range < range then
    invalid_arg "Grid.neighbourhoods: cs_range must be >= range";
  let n = length t in
  let range2 = range *. range and cs_range2 = cs_range *. cs_range in
  let buf = ref (Array.make 64 0) and len = ref 0 and centre = ref 0 in
  let offer j =
    if j <> !centre && within t ~range2:cs_range2 !centre j then begin
      if !len = Array.length !buf then begin
        let grown = Array.make (2 * !len) 0 in
        Array.blit !buf 0 grown 0 !len;
        buf := grown
      end;
      !buf.(!len) <- j;
      incr len
    end
  in
  let hoods = Array.make n [||] and decode = Array.make n 0 in
  for i = 0 to n - 1 do
    centre := i;
    len := 0;
    iter_candidates t ~radius:cs_range i offer;
    let sorted = !buf in
    Prelude.Util.sort_prefix sorted !len;
    let near = ref 0 in
    for k = 0 to !len - 1 do
      if within t ~range2 i sorted.(k) then incr near
    done;
    let hood = Array.make !len 0 in
    let d = ref 0 and c = ref !near in
    for k = 0 to !len - 1 do
      let j = sorted.(k) in
      if within t ~range2 i j then begin
        hood.(!d) <- j;
        incr d
      end
      else begin
        hood.(!c) <- j;
        incr c
      end
    done;
    hoods.(i) <- hood;
    decode.(i) <- !near
  done;
  (hoods, decode)

let candidates t = t.candidates
let rebuckets t = t.rebuckets
