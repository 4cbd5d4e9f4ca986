(* Tests for the telemetry subsystem: metric semantics, span timing with a
   deterministic clock, JSONL sink round-trips, registry isolation, and the
   instrumentation contracts of the solver/simulator/game layers. *)

module T = Telemetry

let registry ?clock () =
  match clock with
  | Some clock -> T.Registry.create ~label:"test" ~clock ()
  | None -> T.Registry.create ~label:"test" ()

(* A fake clock advancing by [step] seconds per reading. *)
let fake_clock ?(start = 0.) ?(step = 1.) () =
  let now = ref (start -. step) in
  fun () ->
    now := !now +. step;
    !now

(* {1 Metrics} *)

let test_counter () =
  let r = registry () in
  let c = T.Registry.counter r "hits" in
  Alcotest.(check int) "starts at zero" 0 (T.Metric.count c);
  T.Metric.incr c;
  T.Metric.add c 4;
  Alcotest.(check int) "accumulates" 5 (T.Metric.count c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Metric.add: counters only go up") (fun () ->
      T.Metric.add c (-1));
  let c' = T.Registry.counter r "hits" in
  T.Metric.incr c';
  Alcotest.(check int) "same name, same cell" 6 (T.Metric.count c)

let test_gauge () =
  let r = registry () in
  let g = T.Registry.gauge r "depth" in
  T.Metric.set g 3.5;
  Alcotest.(check (float 0.)) "holds last value" 3.5 (T.Metric.value g);
  T.Metric.set g 1.;
  Alcotest.(check (float 0.)) "overwrites" 1. (T.Metric.value g)

let test_histogram () =
  let r = registry () in
  let h = T.Registry.histogram r "latency" in
  List.iter (T.Metric.observe h) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check int) "count" 4 (T.Metric.observations h);
  Alcotest.(check (float 1e-12)) "mean" 2.5 (T.Metric.mean h);
  Alcotest.(check (float 1e-12)) "min" 1. (T.Metric.hmin h);
  Alcotest.(check (float 1e-12)) "max" 4. (T.Metric.hmax h);
  Alcotest.(check (float 1e-12)) "total" 10. (T.Metric.total h);
  (* Welford matches the textbook sample stddev. *)
  Alcotest.(check (float 1e-12)) "stddev"
    (sqrt (5. /. 3.))
    (T.Metric.stddev h)

(* {1 Spans} *)

let test_span_records_duration () =
  let r = registry ~clock:(fake_clock ~step:2. ()) () in
  let result = T.Span.with_span ~registry:r "work" (fun () -> 7) in
  Alcotest.(check int) "returns the body's value" 7 result;
  let h = T.Registry.histogram r "work.seconds" in
  Alcotest.(check int) "one observation" 1 (T.Metric.observations h);
  (* enter and leave each read the fake clock once: 2 s apart. *)
  Alcotest.(check (float 1e-9)) "duration from clock" 2. (T.Metric.mean h);
  Alcotest.(check int) "calls counter" 1
    (T.Metric.count (T.Registry.counter r "work.calls"))

let test_span_nesting_depth () =
  let r = registry () in
  let sink, events = T.Sink.memory () in
  T.Registry.add_sink r sink;
  T.Span.with_span ~registry:r "outer" (fun () ->
      T.Span.with_span ~registry:r "inner" (fun () -> ()));
  let depth_of name =
    List.find_map
      (fun (e : T.Event.t) ->
        match (T.Event.field "name" e, T.Event.field "depth" e) with
        | Some (T.Jsonx.String n), Some (T.Jsonx.Int d) when n = name -> Some d
        | _ -> None)
      (events ())
  in
  Alcotest.(check (option int)) "outer at depth 0" (Some 0) (depth_of "outer");
  Alcotest.(check (option int)) "inner at depth 1" (Some 1) (depth_of "inner");
  Alcotest.(check int) "depth restored" 0 (T.Registry.depth r)

let test_span_survives_exception () =
  let r = registry () in
  (try
     T.Span.with_span ~registry:r "boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span still recorded" 1
    (T.Metric.observations (T.Registry.histogram r "boom.seconds"));
  Alcotest.(check int) "depth restored after raise" 0 (T.Registry.depth r)

(* {1 Events and sinks} *)

let test_emit_is_lazy_without_sinks () =
  let r = registry () in
  let called = ref false in
  T.Registry.emit r "noop" (fun () ->
      called := true;
      []);
  Alcotest.(check bool) "thunk not forced" false !called;
  Alcotest.(check bool) "inactive" false (T.Registry.active r)

let test_memory_sink_order () =
  let r = registry ~clock:(fake_clock ()) () in
  let sink, events = T.Sink.memory () in
  T.Registry.add_sink r sink;
  T.Registry.emit r "a" (fun () -> [ ("k", T.Jsonx.Int 1) ]);
  T.Registry.emit r "b" (fun () -> []);
  (match events () with
  | [ a; b ] ->
      Alcotest.(check string) "order" "a" a.T.Event.name;
      Alcotest.(check string) "order" "b" b.T.Event.name;
      Alcotest.(check bool) "timestamps increase" true
        (b.T.Event.at > a.T.Event.at)
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l));
  T.Registry.remove_sink r sink;
  T.Registry.emit r "c" (fun () -> []);
  Alcotest.(check int) "removed sink sees nothing" 2 (List.length (events ()))

let test_jsonl_sink_round_trip () =
  let r = registry () in
  let path = Filename.temp_file "telemetry_test" ".jsonl" in
  let sink = T.Sink.jsonl path in
  T.Registry.add_sink r sink;
  T.Registry.emit r "alpha" (fun () ->
      [
        ("i", T.Jsonx.Int 42);
        ("f", T.Jsonx.Float 0.1);
        ("s", T.Jsonx.String "quote \" and \\ newline \n done");
        ("l", T.Jsonx.List [ T.Jsonx.Float 1e-3; T.Jsonx.Null ]);
        ("inf", T.Jsonx.Float infinity);
      ]);
  T.Registry.emit r "beta" (fun () -> [ ("ok", T.Jsonx.Bool true) ]);
  T.Registry.remove_sink r sink;
  T.Sink.close sink;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  let events =
    List.map
      (fun line ->
        match T.Event.of_json (T.Jsonx.parse line) with
        | Some e -> e
        | None -> Alcotest.failf "line is not an event: %s" line)
      lines
  in
  (match events with
  | [ alpha; beta ] ->
      Alcotest.(check string) "name survives" "alpha" alpha.T.Event.name;
      Alcotest.(check string) "name survives" "beta" beta.T.Event.name;
      (match T.Event.field "s" alpha with
      | Some (T.Jsonx.String s) ->
          Alcotest.(check string) "escaped string survives"
            "quote \" and \\ newline \n done" s
      | _ -> Alcotest.fail "string field lost");
      (match T.Event.field "f" alpha with
      | Some (T.Jsonx.Float f) ->
          Alcotest.(check (float 0.)) "float round-trips exactly" 0.1 f
      | _ -> Alcotest.fail "float field lost");
      (* Non-finite floats are rendered as null: still valid JSON. *)
      Alcotest.(check bool) "infinity becomes null" true
        (T.Event.field "inf" alpha = Some T.Jsonx.Null)
  | _ -> Alcotest.fail "expected two events")

(* The golden snapshots and the result cache both lean on parse ∘ render
   being the identity; these pin the edges of that contract. *)
let test_jsonx_round_trip_edges () =
  let rt v = T.Jsonx.parse (T.Jsonx.to_string v) in
  (* Control characters, quotes and backslashes in strings. *)
  let hairy = "tab\t nl\n cr\r quote\" back\\slash bell\007 esc\027 nul\000" in
  (match rt (T.Jsonx.String hairy) with
  | T.Jsonx.String s -> Alcotest.(check string) "escapes survive" hairy s
  | _ -> Alcotest.fail "string did not round-trip as a string");
  (* Non-finite floats have no JSON representation: they render as null and
     must still produce a parseable line. *)
  List.iter
    (fun x ->
      Alcotest.(check bool)
        "non-finite float renders as null" true
        (rt (T.Jsonx.Float x) = T.Jsonx.Null))
    [ nan; infinity; neg_infinity ];
  (* Extreme integers. *)
  List.iter
    (fun i ->
      Alcotest.(check bool)
        "extreme int round-trips" true
        (rt (T.Jsonx.Int i) = T.Jsonx.Int i))
    [ max_int; min_int; 0; -1 ];
  (* Floats must round-trip bit-for-bit, including the %.17g fallback
     cases, denormals and integral values (which render with a decimal
     point so they come back as Float, not Int). *)
  List.iter
    (fun x ->
      match rt (T.Jsonx.Float x) with
      | T.Jsonx.Float y ->
          Alcotest.(check bool)
            (Printf.sprintf "float %h bit-identical" x)
            true
            (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
      | other ->
          Alcotest.failf "float %h round-tripped as %s" x
            (T.Jsonx.to_string other))
    [
      0.1; 1. /. 3.; 1.0000000000000002; 1e-300; -1.5e308; 4.9e-324; 3.0;
      -0.; 1e16; 123456789.5; 1234567890123456.; 9007199254740992.;
    ]

(* {2 The float printer}

   The properties below pin the shortest round-trip printer.  The reference
   for "shortest" is C's correctly rounded %.{p}g, which lives only here:
   the printer has no Printf path. *)

let render x = T.Jsonx.to_string (T.Jsonx.Float x)

(* The significant digits of a rendered finite float: its mantissa digits
   without leading or trailing zeros. *)
let digit_string r =
  let mantissa =
    match String.index_opt r 'e' with Some i -> String.sub r 0 i | None -> r
  in
  let ds =
    String.concat ""
      (String.split_on_char '.'
         (String.concat "" (String.split_on_char '-' mantissa)))
  in
  let n = String.length ds in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && ds.[!i] = '0' do incr i done;
  while !j >= !i && ds.[!j] = '0' do decr j done;
  if !j < !i then "0" else String.sub ds !i (!j - !i + 1)

let significant_digits r = String.length (digit_string r)

let round_trips_at p x = float_of_string (Printf.sprintf "%.*g" p x) = x

(* The rendering before the shortest printer, for the values whose bytes
   must not move. *)
let pre_shortest_bytes x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.12g" x

let bit_identical x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* Uniform 64-bit patterns, subnormals, signed zeros, the neighbours of
   powers of two and of ten, decimals of at most 12 digits (the values
   whose bytes must not move), and full-precision values within a few
   binades of 2^52, where halfway cases (x.25, x.75 with quarter spacing)
   and interval bounds that are short decimals occur. *)
let finite_floats =
  let open QCheck.Gen in
  let neighbours x = oneofl [ x; Float.succ x; Float.pred x ] in
  let finite g = map (fun x -> if Float.is_finite x then x else 0.5) g in
  let signed g = map2 (fun neg x -> if neg then -.x else x) bool g in
  QCheck.make ~print:(Printf.sprintf "%h")
    (signed
       (frequency
          [
            (4, finite (map Int64.float_of_bits ui64));
            ( 2,
              map
                (fun t -> Int64.float_of_bits (Int64.of_int t))
                (int_range 1 ((1 lsl 52) - 1)) );
            (1, oneofl [ 0.; Float.min_float; Float.max_float; 0x1p-1074 ]);
            ( 3,
              finite
                ( int_range 1 12 >>= fun p ->
                  map2
                    (fun m e ->
                      let m = m mod int_of_float (10. ** float_of_int p) in
                      float_of_string (Printf.sprintf "%de%d" m e))
                    (int_bound 999_999_999_999)
                    (oneof [ int_range (-25) 25; int_range (-300) 300 ]) ) );
            ( 2,
              map2
                (fun c q -> Float.ldexp (float_of_int c) q)
                (int_range (1 lsl 52) ((1 lsl 53) - 1))
                (int_range (-8) 8) );
            ( 2,
              int_range (-1074) 1023 >>= fun k -> neighbours (Float.ldexp 1. k)
            );
            ( 2,
              int_range (-323) 308 >>= fun k ->
              neighbours (float_of_string ("1e" ^ string_of_int k)) );
          ]))

let prop_float_round_trips =
  QCheck.Test.make ~name:"float renders and parses back bit-identically"
    ~count:3000 finite_floats (fun x ->
      match T.Jsonx.parse (render x) with
      | T.Jsonx.Float y -> bit_identical x y
      | _ -> false)

let prop_float_is_shortest =
  QCheck.Test.make ~name:"no %.{p}g with fewer digits round-trips"
    ~count:3000 finite_floats (fun x ->
      let digits = significant_digits (render x) in
      let rec none_below p =
        p >= digits || ((not (round_trips_at p x)) && none_below (p + 1))
      in
      none_below 1)

(* Among the decimals of the shortest length the printer picks the closest,
   which is the correctly rounded %.{p}g whenever that one reads back. *)
let prop_float_is_closest =
  QCheck.Test.make ~name:"shortest digits are the closest of their length"
    ~count:3000 finite_floats (fun x ->
      let r = render x in
      let digits = significant_digits r in
      (not (round_trips_at digits x))
      || digit_string r = digit_string (Printf.sprintf "%.*g" digits x))

(* Where %.12g reads back, the bytes are the pre-shortest ones.  Normal
   values only: below 2^-1022 the spacing of doubles is coarser than 12
   digits, so %.12g can read back while a shorter form exists
   (4.94065645841e-324 against 5e-324), and the printer gives the
   shorter. *)
let prop_float_bytes_kept =
  QCheck.Test.make ~name:"%.12g round-trip values keep their bytes"
    ~count:3000 finite_floats (fun x ->
      QCheck.assume (x = 0. || Float.abs x >= Float.min_float);
      (not (round_trips_at 12 x)) || render x = pre_shortest_bytes x)

(* Every binary exponent, so every power-of-ten table row in use, at the
   edges and middle of its significand range; and the smallest
   subnormals, whose one- and two-digit forms skip the usual candidates. *)
let test_float_every_exponent () =
  for bq = 0 to 2046 do
    List.iter
      (fun t ->
        let x =
          Int64.float_of_bits
            (Int64.logor (Int64.shift_left (Int64.of_int bq) 52) t)
        in
        if x <> 0. then begin
          let r = render x in
          (match T.Jsonx.parse r with
          | T.Jsonx.Float y when bit_identical x y -> ()
          | _ -> Alcotest.failf "%h rendered as %s does not read back" x r);
          let digits = significant_digits r in
          if digits > 1 && round_trips_at (digits - 1) x then
            Alcotest.failf "%h rendered as %s is not the shortest" x r
        end)
      (if bq = 0 then List.init 100 Int64.of_int
       else [ 0L; 1L; 0x8_0000_0000_0000L; 0xF_FFFF_FFFF_FFFFL ])
  done

let test_float_wire_format () =
  List.iter
    (fun (x, want) ->
      Alcotest.(check string) (Printf.sprintf "%h" x) want (render x))
    [
      (0.1, "0.1"); (100., "100.0"); (-0., "-0.0"); (0., "0.0");
      (1e15, "1e+15"); (1.5e15, "1.5e+15"); (1e-5, "1e-05"); (1e-4, "0.0001");
      (1.23456789012e15, "1.23456789012e+15");
      (1125899906842624.75, "1125899906842624.8");
      (123456789012.5, "123456789012.5"); (1e300, "1e+300");
      (1234567890123456., "1234567890123456.0");
      (9007199254740992., "9007199254740992.0");
      (0.03162762789768866, "0.03162762789768866");
      (1.7976931348623157e308, "1.7976931348623157e+308");
      (5e-324, "5e-324"); (nan, "null"); (neg_infinity, "null");
    ]

(* The .mli's promise: parse inverts to_string, floats bit for bit, with
   non-finite floats reading back as null. *)
let rec json_equal (a : T.Jsonx.t) (b : T.Jsonx.t) =
  match (a, b) with
  | Float x, Float y -> bit_identical x y
  | Float x, Null -> not (Float.is_finite x)
  | List l, List m -> List.equal json_equal l m
  | Obj l, Obj m ->
      List.equal (fun (k, v) (k', v') -> k = k' && json_equal v v') l m
  | a, b -> a = b

let prop_parse_inverts_render =
  let value =
    let open QCheck.Gen in
    let text = string_size ~gen:char (int_bound 6) in
    let leaf =
      oneof
        [
          return T.Jsonx.Null;
          map (fun b -> T.Jsonx.Bool b) bool;
          map (fun i -> T.Jsonx.Int i) int;
          map (fun x -> T.Jsonx.Float x)
            (oneof [ QCheck.gen finite_floats; oneofl [ nan; infinity ] ]);
          map (fun s -> T.Jsonx.String s) text;
        ]
    in
    sized
      (fix (fun self n ->
           if n <= 1 then leaf
           else
             let items = list_size (int_bound 3) (self (n / 3)) in
             let fields = list_size (int_bound 3) (pair text (self (n / 3))) in
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> T.Jsonx.List l) items);
                 (1, map (fun f -> T.Jsonx.Obj f) fields);
               ]))
  in
  QCheck.Test.make ~name:"parse inverts to_string" ~count:2000
    (QCheck.make ~print:T.Jsonx.to_string value) (fun v ->
      json_equal v (T.Jsonx.parse (T.Jsonx.to_string v)))

(* {2 The parser} *)

(* A plain number token reads as [int_of_string] and, failing that,
   [float_of_string] would read it: the in-place integer scanner must agree
   with them on every token, overflow included. *)
let prop_number_tokens =
  let token =
    QCheck.Gen.(
      oneof
        [
          string_size
            ~gen:(oneofl [ '0'; '1'; '9'; '-'; '+'; '.'; 'e'; 'E' ])
            (int_range 1 6);
          map (fun d -> string_of_int max_int ^ d) (oneofl [ ""; "0"; "9" ]);
          map string_of_int (oneofl [ max_int; min_int; 0; -1 ]);
          oneofl
            [
              "-4611686018427387904"; "-4611686018427387905";
              "+4611686018427387903"; "+4611686018427387904"; "+007";
            ];
        ])
  in
  QCheck.Test.make ~name:"number tokens read as int_of_string/float_of_string"
    ~count:3000 (QCheck.make ~print:(Printf.sprintf "%S") token) (fun s ->
      let expected =
        match int_of_string_opt s with
        | Some i -> Some (T.Jsonx.Int i)
        | None -> Option.map (fun f -> T.Jsonx.Float f) (float_of_string_opt s)
      in
      match (T.Jsonx.parse s, expected) with
      | T.Jsonx.Int i, Some (T.Jsonx.Int j) -> i = j
      | T.Jsonx.Float x, Some (T.Jsonx.Float y) -> bit_identical x y
      | _ -> false
      | exception T.Jsonx.Parse_error _ -> expected = None)

let test_jsonx_depth_bound () =
  let nested depth = String.make depth '[' ^ String.make depth ']' in
  (match T.Jsonx.parse (nested T.Jsonx.max_depth) with
  | T.Jsonx.List _ -> ()
  | _ -> Alcotest.fail "nesting at the bound must parse");
  let objects depth =
    String.concat "" (List.init depth (fun _ -> {|{"a":|})) ^ "1"
    ^ String.make depth '}'
  in
  ignore (T.Jsonx.parse (objects T.Jsonx.max_depth));
  List.iter
    (fun line ->
      match T.Jsonx.parse line with
      | _ -> Alcotest.fail "nesting beyond the bound must be refused"
      | exception T.Jsonx.Parse_error _ -> ())
    [
      nested (T.Jsonx.max_depth + 1);
      objects (T.Jsonx.max_depth + 1);
      String.make 1_000_000 '[';
    ]

(* A torn JSONL line — a prefix of a valid object cut mid-write — must be
   rejected, never silently completed. *)
let test_jsonx_rejects_torn_lines () =
  let line =
    T.Jsonx.to_string
      (T.Jsonx.Obj
         [
           ("name", T.Jsonx.String "run_summary");
           ("values", T.Jsonx.List [ T.Jsonx.Float 0.25; T.Jsonx.Int 3 ]);
         ])
  in
  for cut = 1 to String.length line - 1 do
    let torn = String.sub line 0 cut in
    match T.Jsonx.parse torn with
    | _ -> Alcotest.failf "parsed torn prefix %S" torn
    | exception T.Jsonx.Parse_error _ -> ()
  done;
  (* Two records glued onto one line are trailing garbage, not a value. *)
  match T.Jsonx.parse (line ^ line) with
  | _ -> Alcotest.fail "parsed two glued documents"
  | exception T.Jsonx.Parse_error _ -> ()

let test_jsonx_parse_rejects_garbage () =
  List.iter
    (fun s ->
      match T.Jsonx.parse s with
      | _ -> Alcotest.failf "parsed garbage %S" s
      | exception T.Jsonx.Parse_error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

let test_registry_isolation () =
  let a = registry () and b = registry () in
  T.Metric.incr (T.Registry.counter a "shared.name");
  Alcotest.(check int) "registries do not share cells" 0
    (T.Metric.count (T.Registry.counter b "shared.name"));
  let sink, events = T.Sink.memory () in
  T.Registry.add_sink a sink;
  T.Registry.emit b "only-b" (fun () -> []);
  Alcotest.(check int) "sinks are per-registry" 0 (List.length (events ()))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let test_report_renders () =
  let r = registry () in
  T.Metric.add (T.Registry.counter r "requests") 3;
  T.Metric.observe (T.Registry.histogram r "io.seconds") 0.25;
  let s = T.Report.render ~registry:r () in
  Alcotest.(check bool) "mentions the counter" true (contains s "requests");
  Alcotest.(check bool) "mentions the histogram" true (contains s "io.seconds")

(* {1 Layer instrumentation contracts} *)

let params = Dcf.Params.default

let capture f =
  let r = registry () in
  let sink, events = T.Sink.memory () in
  T.Registry.add_sink r sink;
  let x = f r in
  (x, r, events ())

let names events = List.map (fun (e : T.Event.t) -> e.T.Event.name) events

let test_solver_emits_convergence () =
  let _, _, events =
    capture (fun r ->
        Dcf.Solver.solve_classes ~telemetry:r ~algo:Picard params
          (List.map
             (fun w -> (Dcf.Strategy_space.of_cw w, 1))
             [ 32; 64; 128 ]))
  in
  Alcotest.(check bool) "solver_convergence emitted" true
    (List.mem "solver_convergence" (names events));
  Alcotest.(check bool) "residual_trajectory emitted" true
    (List.mem "residual_trajectory" (names events));
  let conv =
    List.find (fun (e : T.Event.t) -> e.T.Event.name = "solver_convergence")
      events
  in
  (match (T.Event.field "iterations" conv, T.Event.field "converged" conv) with
  | Some (T.Jsonx.Int i), Some (T.Jsonx.Bool c) ->
      Alcotest.(check bool) "iterated" true (i > 0);
      Alcotest.(check bool) "converged" true c
  | _ -> Alcotest.fail "solver_convergence lacks iterations/converged")

let test_homogeneous_iteration_count () =
  let iterations = ref (-1) in
  let tau, p = Dcf.Solver.solve_homogeneous ~iterations params ~n:10 ~w:128 in
  Alcotest.(check bool) "tau in (0,1)" true (tau > 0. && tau < 1.);
  Alcotest.(check bool) "p in (0,1)" true (p > 0. && p < 1.);
  Alcotest.(check bool) "brent iterations reported" true (!iterations > 0);
  let iterations1 = ref (-1) in
  let _ = Dcf.Solver.solve_homogeneous ~iterations:iterations1 params ~n:1 ~w:64 in
  Alcotest.(check int) "n=1 is closed-form" 0 !iterations1;
  let ic = ref (-1) in
  let _ =
    Dcf.Solver.solve_classes ~iterations:ic params
      [ (Dcf.Strategy_space.of_cw 64, 3); (Dcf.Strategy_space.of_cw 128, 4) ]
  in
  Alcotest.(check bool) "class iterations reported" true (!ic > 0)

let test_repeated_game_cache_and_events () =
  let outcome, r, events =
    capture (fun r ->
        Macgame.Repeated.run
          (Macgame.Oracle.create ~telemetry:r params)
          ~strategies:
            (Macgame.Repeated.all_tft ~n:4 ~initials:[| 100; 100; 100; 100 |])
          ~stages:6)
  in
  Alcotest.(check bool) "converged" true (outcome.converged_at <> None);
  (* A converged TFT run re-evaluates the same uniform profile every stage:
     the memoised payoff cache must be doing the work. *)
  let hits = T.Metric.count (T.Registry.counter r "oracle.cache.hits") in
  let misses =
    T.Metric.count (T.Registry.counter r "oracle.cache.misses")
  in
  Alcotest.(check bool) "cache hits on a converged run" true (hits > 0);
  Alcotest.(check bool) "some misses too" true (misses > 0);
  Alcotest.(check int) "one game_stage per stage" 6
    (List.length
       (List.filter (fun n -> n = "game_stage") (names events)));
  Alcotest.(check bool) "game_summary emitted" true
    (List.mem "game_summary" (names events))

let test_slotted_run_summary () =
  let result, _, events =
    capture (fun r ->
        Netsim.Slotted.run ~telemetry:r
          { params; cws = Array.make 4 64; duration = 1.; seed = 3 })
  in
  let a = result.Netsim.Slotted.airtime in
  Alcotest.(check (float 1e-9)) "airtime fractions sum to 1" 1.
    (a.idle_fraction +. a.success_fraction +. a.collision_fraction
   +. a.error_fraction);
  let summary =
    List.find (fun (e : T.Event.t) -> e.T.Event.name = "run_summary") events
  in
  (match T.Event.field "jain_fairness" summary with
  | Some (T.Jsonx.Float j) ->
      Alcotest.(check bool) "fairness in (0,1]" true (j > 0. && j <= 1.)
  | _ -> Alcotest.fail "run_summary lacks jain_fairness");
  match T.Event.field "success_share" summary with
  | Some (T.Jsonx.List shares) ->
      Alcotest.(check int) "one share per node" 4 (List.length shares)
  | _ -> Alcotest.fail "run_summary lacks success_share"

let test_spatial_run_summary () =
  let adjacency =
    Array.init 5 (fun i ->
        List.filter (fun j -> j >= 0 && j < 5 && j <> i) [ i - 1; i + 1 ])
  in
  let result, _, events =
    capture (fun r ->
        Netsim.Spatial.run ~telemetry:r
          {
            params = Dcf.Params.rts_cts;
            adjacency;
            cws = Array.make 5 32;
            duration = 1.;
            seed = 5;
          })
  in
  let a = result.Netsim.Spatial.airtime in
  Alcotest.(check bool) "busy + idle = 1" true
    (Float.abs (a.busy_fraction +. a.idle_fraction -. 1.) < 1e-9);
  Alcotest.(check bool) "busy in [0,1]" true
    (a.busy_fraction >= 0. && a.busy_fraction <= 1.);
  Alcotest.(check bool) "run_summary emitted" true
    (List.mem "run_summary" (names events))

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "spans",
        [
          Alcotest.test_case "duration" `Quick test_span_records_duration;
          Alcotest.test_case "nesting depth" `Quick test_span_nesting_depth;
          Alcotest.test_case "exception safety" `Quick
            test_span_survives_exception;
        ] );
      ( "events",
        [
          Alcotest.test_case "lazy without sinks" `Quick
            test_emit_is_lazy_without_sinks;
          Alcotest.test_case "memory sink" `Quick test_memory_sink_order;
          Alcotest.test_case "jsonl round-trip" `Quick
            test_jsonl_sink_round_trip;
          Alcotest.test_case "parser rejects garbage" `Quick
            test_jsonx_parse_rejects_garbage;
          Alcotest.test_case "round-trip edge cases" `Quick
            test_jsonx_round_trip_edges;
          Alcotest.test_case "torn lines rejected" `Quick
            test_jsonx_rejects_torn_lines;
          Alcotest.test_case "float wire format" `Quick test_float_wire_format;
          Alcotest.test_case "float at every exponent" `Quick
            test_float_every_exponent;
          Alcotest.test_case "nesting depth bound" `Quick
            test_jsonx_depth_bound;
          QCheck_alcotest.to_alcotest prop_float_round_trips;
          QCheck_alcotest.to_alcotest prop_float_is_shortest;
          QCheck_alcotest.to_alcotest prop_float_is_closest;
          QCheck_alcotest.to_alcotest prop_float_bytes_kept;
          QCheck_alcotest.to_alcotest prop_parse_inverts_render;
          QCheck_alcotest.to_alcotest prop_number_tokens;
          Alcotest.test_case "registry isolation" `Quick
            test_registry_isolation;
          Alcotest.test_case "report renders" `Quick test_report_renders;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "solver convergence" `Quick
            test_solver_emits_convergence;
          Alcotest.test_case "iteration counts" `Quick
            test_homogeneous_iteration_count;
          Alcotest.test_case "repeated game cache" `Quick
            test_repeated_game_cache_and_events;
          Alcotest.test_case "slotted run summary" `Quick
            test_slotted_run_summary;
          Alcotest.test_case "spatial run summary" `Quick
            test_spatial_run_summary;
        ] );
    ]
