(* Statistics, failure accounting and result plumbing shared by the
   benchmark's workloads.  Everything here is pure so the test suite can
   pin the reporting rules without running a workload. *)

module Jx = Telemetry.Jsonx

(* {1 Percentiles} *)

(* Nearest-rank rule: the q-percentile of n sorted samples is the sample at
   index ceil(q·n) − 1, so at least a q share of the samples lie at or below
   it. *)
let percentile_index ~n q =
  if n < 1 then invalid_arg "Benchkit.percentile_index: no samples";
  if not (q > 0. && q <= 1.) then
    invalid_arg "Benchkit.percentile_index: q must be in (0, 1]";
  let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  Int.max 0 (Int.min (n - 1) k)

let percentile sorted q = sorted.(percentile_index ~n:(Array.length sorted) q)

(* Samples strictly above the q-percentile sample. *)
let beyond ~n q = n - 1 - percentile_index ~n q

let tail_levels = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

(* The highest reported percentile that still has at least ten samples
   beyond it; [None] below 11 samples. *)
let tail_level ~n = List.find_opt (fun q -> beyond ~n q >= 10) tail_levels

let sorted_copy xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted_copy xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by the same rule as Python's [statistics.quantiles(xs, n=4)]
   (the "exclusive" method), so the spread a reader computes from the
   printed repetitions matches the one printed here. *)
let quartiles xs =
  let a = sorted_copy xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 2, cut 3)

(* A latency distribution as the reports state it: the median and the
   highest percentile with ten samples beyond it, with the sample count. *)
type dist = { count : int; p50 : float; tail_q : float option; tail : float }

let dist xs =
  let a = sorted_copy xs in
  let n = Array.length a in
  if n = 0 then { count = 0; p50 = nan; tail_q = None; tail = nan }
  else
    let tail_q = tail_level ~n in
    {
      count = n;
      p50 = percentile a 0.5;
      tail_q;
      tail = (match tail_q with Some q -> percentile a q | None -> nan);
    }

let pp_dist ~unit_ d =
  match d.tail_q with
  | Some q ->
      Printf.sprintf "p50 %.4g %s, p%g %.4g %s (n=%d)" d.p50 unit_ (100. *. q)
        d.tail unit_ d.count
  | None -> Printf.sprintf "p50 %.4g %s (n=%d)" d.p50 unit_ d.count

(* {1 Throughput over blocks} *)

(* Completed requests per second in each of [blocks] equal blocks of a
   closed-loop phase that started at [start], where [done_at.(i)] is when
   request i's reply arrived.  A median over blocks is not carried by the
   few blocks a stall of the host happens to hit. *)
let block_rates ~start ~blocks done_at =
  let n = Array.length done_at in
  if blocks < 1 || n < blocks then invalid_arg "Benchkit.block_rates";
  Array.init blocks (fun j ->
      let i0 = j * n / blocks and i1 = (j + 1) * n / blocks in
      let t0 = if i0 = 0 then start else done_at.(i0 - 1) in
      float_of_int (i1 - i0) /. (done_at.(i1 - 1) -. t0))

(* {1 Failure accounting} *)

type phase = {
  phase : string;
  mutable attempted : int;
  mutable succeeded : int;
  mutable failed : int;
  mutable causes : (string * int) list;
}

let phase name =
  { phase = name; attempted = 0; succeeded = 0; failed = 0; causes = [] }

let succeed p =
  p.attempted <- p.attempted + 1;
  p.succeeded <- p.succeeded + 1

let fail p cause =
  p.attempted <- p.attempted + 1;
  p.failed <- p.failed + 1;
  p.causes <-
    (match List.assoc_opt cause p.causes with
    | Some k -> (cause, k + 1) :: List.remove_assoc cause p.causes
    | None -> (cause, 1) :: p.causes)

(* A check that did not hold is a failed operation of its phase. *)
let check p ~cause ok = if ok then succeed p else fail p cause

let failure_share ~attempted ~failed =
  if attempted <= 0 then 0. else float_of_int failed /. float_of_int attempted

let totals phases =
  List.fold_left
    (fun (a, f) p -> (a + p.attempted, f + p.failed))
    (0, 0) phases

let pp_phase p =
  Printf.sprintf "%-22s attempted %7d  succeeded %7d  failed %5d  (share %.4f)%s"
    p.phase p.attempted p.succeeded p.failed
    (failure_share ~attempted:p.attempted ~failed:p.failed)
    (match p.causes with
    | [] -> ""
    | cs ->
        "  causes: "
        ^ String.concat ", "
            (List.map (fun (c, k) -> Printf.sprintf "%s=%d" c k) cs))

(* {1 Reply normalisation} *)

(* Drop every ["elapsed_ms":<number>,] field of a reply line: the service
   time is the only part of a reply that may differ between two answers to
   the same query. *)
let strip_elapsed line =
  let key = "\"elapsed_ms\":" in
  let kl = String.length key and n = String.length line in
  let buf = Buffer.create n in
  let rec go i =
    if i >= n then ()
    else if line.[i] = '"' && i + kl <= n && String.sub line i kl = key then begin
      let j = ref (i + kl) in
      while !j < n && line.[!j] <> ',' && line.[!j] <> '}' do incr j done;
      if !j < n && line.[!j] = ',' then go (!j + 1)
      else begin
        (* The last field of its object: drop the comma before it. *)
        let b = Buffer.length buf in
        if b > 0 && Buffer.nth buf (b - 1) = ',' then Buffer.truncate buf (b - 1);
        go !j
      end
    end
    else begin
      Buffer.add_char buf line.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

(* A reply without its echoed id and service times: what must be identical
   across tiers, phases and processes. *)
let payload line =
  let line = strip_elapsed line in
  let prefix = "{\"id\":" in
  let pl = String.length prefix in
  if String.length line > pl && String.sub line 0 pl = prefix then
    match String.index_from_opt line pl ',' with
    | Some k -> String.sub line (k + 1) (String.length line - k - 1)
    | None -> line
  else line

(* The integer id a reply echoes, read without parsing the reply. *)
let reply_id line =
  let prefix = "{\"id\":" in
  let pl = String.length prefix in
  if String.length line <= pl || String.sub line 0 pl <> prefix then None
  else
    match String.index_from_opt line pl ',' with
    | Some k -> int_of_string_opt (String.sub line pl (k - pl))
    | None -> None

(* {1 The result line} *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* The last line of a run: every metric with its unit.  Non-finite values
   cannot be written as JSON numbers, so they are refused here rather than
   rendered as [null]. *)
let result_json ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then
        invalid_arg
          (Printf.sprintf "Benchkit.result_json: metric %s is not finite"
             m.name))
    metrics;
  Jx.Obj
    [
      ("correct", Jx.Bool correct);
      ("attempted", Jx.Int attempted);
      ("failed", Jx.Int failed);
      ( "metrics",
        Jx.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Jx.Obj [ ("value", Jx.Float m.value); ("unit", Jx.String m.unit_) ]
               ))
             metrics) );
    ]
