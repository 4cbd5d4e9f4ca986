type t = {
  mask : int; (* W − 1 *)
  heads : int array; (* first cell of each ring slot, -1 when empty *)
  mutable cells : int array; (* cell c: key at 2c, next cell at 2c + 1 *)
  mutable free : int; (* free-list head, -1 when the pool is exhausted *)
  mutable pending : int;
  mutable now : int;
  mutable due : int array; (* keys of slot [now], sorted *)
  mutable due_count : int;
}

(* Thread cells [lo, hi) onto the free list in index order. *)
let link_free cells lo hi rest =
  for c = lo to hi - 2 do
    cells.((2 * c) + 1) <- c + 1
  done;
  cells.((2 * (hi - 1)) + 1) <- rest

let create ~reach ~capacity =
  if reach < 1 then invalid_arg "Calendar.create: reach must be >= 1";
  if capacity < 1 then invalid_arg "Calendar.create: capacity must be >= 1";
  if reach >= max_int lsr 2 then invalid_arg "Calendar.create: reach too large";
  let w = ref 2 in
  while !w <= reach do
    w := 2 * !w
  done;
  let cells = Array.make (2 * capacity) 0 in
  link_free cells 0 capacity (-1);
  {
    mask = !w - 1;
    heads = Array.make !w (-1);
    cells;
    free = 0;
    pending = 0;
    now = -1;
    due = Array.make 16 0;
    due_count = 0;
  }

let window t = t.mask + 1
let now t = t.now
let pending t = t.pending
let is_empty t = t.pending = 0

let grow t =
  let used = Array.length t.cells / 2 in
  let cells = Array.make (4 * used) 0 in
  Array.blit t.cells 0 cells 0 (2 * used);
  link_free cells used (2 * used) (-1);
  t.cells <- cells;
  t.free <- used

let push t slot key =
  let ahead = slot - t.now in
  if ahead < 1 || ahead > t.mask then
    invalid_arg "Calendar.push: slot outside the window";
  if t.free < 0 then grow t;
  let cells = t.cells in
  let c = t.free in
  t.free <- cells.((2 * c) + 1);
  let h = slot land t.mask in
  cells.(2 * c) <- key;
  cells.((2 * c) + 1) <- t.heads.(h);
  t.heads.(h) <- c;
  t.pending <- t.pending + 1

let take t =
  if t.pending = 0 then invalid_arg "Calendar.take: empty calendar";
  (* Every pending slot lies in (now, now + W): the first non-empty head
     after [now] is the earliest one. *)
  let slot = ref (t.now + 1) in
  while t.heads.(!slot land t.mask) < 0 do
    incr slot
  done;
  let h = !slot land t.mask in
  let cells = t.cells in
  let first = t.heads.(h) in
  let c = ref first and last = ref first and len = ref 0 in
  while !c >= 0 do
    if !len = Array.length t.due then begin
      let due = Array.make (2 * !len) 0 in
      Array.blit t.due 0 due 0 !len;
      t.due <- due
    end;
    t.due.(!len) <- cells.(2 * !c);
    incr len;
    last := !c;
    c := cells.((2 * !c) + 1)
  done;
  (* Hand the whole slot list back to the pool in one splice. *)
  cells.((2 * !last) + 1) <- t.free;
  t.free <- first;
  t.heads.(h) <- -1;
  t.pending <- t.pending - !len;
  t.now <- !slot;
  t.due_count <- !len;
  Prelude.Util.sort_prefix t.due !len;
  !slot

let due_count t = t.due_count
let due t k = t.due.(k)
