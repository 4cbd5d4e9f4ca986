type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* {2 Rendering}

   Everything writes straight into the caller's buffer: no Printf, and no
   intermediate strings for ints, floats or strings that need no escaping. *)

let digit d = Char.unsafe_chr (48 + d)

(* "000102…99": two digits per table lookup. *)
let pairs =
  String.init 200 (fun i ->
      digit (if i land 1 = 0 then i / 20 else i / 2 mod 10))

(* Room for the digits of any int. *)
let scratch_len = 20

(* Writes the decimal digits of [-n], [n <= 0], so that they end just
   before index [i] of [b], and returns the index of the first one.
   Counting on the non-positive side covers [min_int]. *)
let rec fill b i n =
  if n <= -100 then begin
    let q = n / 100 in
    let r = 2 * ((q * 100) - n) in
    Bytes.unsafe_set b (i - 1) (String.unsafe_get pairs (r + 1));
    Bytes.unsafe_set b (i - 2) (String.unsafe_get pairs r);
    fill b (i - 2) q
  end
  else if n <= -10 then begin
    Bytes.unsafe_set b (i - 1) (String.unsafe_get pairs ((-2 * n) + 1));
    Bytes.unsafe_set b (i - 2) (String.unsafe_get pairs (-2 * n));
    i - 2
  end
  else begin
    Bytes.unsafe_set b (i - 1) (digit (-n));
    i - 1
  end

let add_int buf i =
  if i >= 0 && i < 10 then Buffer.add_char buf (digit i)
  else begin
    let b = Bytes.create scratch_len in
    let start = fill b scratch_len (if i < 0 then i else -i) in
    if i < 0 then Buffer.add_char buf '-';
    Buffer.add_subbytes buf b start (scratch_len - start)
  end

let rec needs_escape s i =
  i < String.length s
  &&
  match String.unsafe_get s i with
  | '"' | '\\' | '\000' .. '\031' -> true
  | _ -> needs_escape s (i + 1)

let hex_digits = "0123456789abcdef"

let escape buf s =
  Buffer.add_char buf '"';
  if not (needs_escape s 0) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf "\\u00";
            Buffer.add_char buf hex_digits.[Char.code c lsr 4];
            Buffer.add_char buf hex_digits.[Char.code c land 15]
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

(* {3 Floats: shortest round-trip digits}

   A finite double renders as the shortest decimal that reads back as the
   same double, and the closest to it when several are that short.  The
   digits come from Schubfach (R. Giulietti, "The Schubfach way to render
   doubles", 2020): for v = c 2^q it scales the rounding interval of v by a
   power of ten 10^-k chosen so that the interval holds one or two
   candidates s 10^k, (s + 1) 10^k, plus at most one with a digit fewer.
   The scaling is one 64x128-bit multiplication per bound with a 126-bit
   table entry g(k) (Jsonx_pow10, generated exactly by
   gen_jsonx_pow10.py), rounded to odd, which the paper proves is enough
   to decide interval membership exactly.  There is no fallback path.

   Layout follows C's %g: up to 12 significant digits print as %.12g would
   (for normal doubles those are exactly the values whose %.12g form reads
   back; a subnormal can have a shorter form than its %.12g one), longer
   digit strings as %.17g would lay them out.  Integral values below 1e15
   keep the %.1f form, and every other integral value that lays out
   without an exponent gains ".0", so a Float always parses back as a
   Float. *)

let q_min = -1074
let c_min = 1 lsl 52

(* floor (log10 2^e), floor (log10 (3/4 2^e)) and floor (log2 10^e) over
   every exponent a double reaches (checked by gen_jsonx_pow10.py). *)
let flog10pow2 e = (e * 661_971_961_083) asr 41

let flog10_three_quarters_pow2 e =
  ((e * 661_971_961_083) - 274_743_187_321) asr 41

let flog2pow10 e = (e * 913_124_641_741) asr 38
let mask32 = 0xFFFF_FFFFL

(* High 64 bits of the product of two int64s in [0, 2^63). *)
let[@inline] mul_hi a b =
  let a0 = Int64.logand a mask32 and a1 = Int64.shift_right_logical a 32 in
  let b0 = Int64.logand b mask32 and b1 = Int64.shift_right_logical b 32 in
  let t =
    Int64.add (Int64.mul a1 b0)
      (Int64.shift_right_logical (Int64.mul a0 b0) 32)
  in
  let u = Int64.add (Int64.mul a0 b1) (Int64.logand t mask32) in
  Int64.add
    (Int64.add (Int64.mul a1 b1) (Int64.shift_right_logical t 32))
    (Int64.shift_right_logical u 32)

(* cp g / 2^127 rounded to odd, for g = g1 2^63 + g0 (paper, figure 8). *)
let[@inline] rop g1 g0 cp =
  let cp = Int64.of_int cp in
  let x1 = mul_hi g0 cp in
  let y0 = Int64.mul g1 cp in
  let y1 = mul_hi g1 cp in
  let z = Int64.add (Int64.shift_right_logical y0 1) x1 in
  let floor = Int64.add y1 (Int64.shift_right_logical z 63) in
  let sticky =
    Int64.shift_right_logical
      (Int64.add (Int64.logand z Int64.max_int) Int64.max_int)
      63
  in
  Int64.to_int (Int64.logor floor sticky)

(* Lay out s 10^k, [s > 0], as %.12g would, or %.17g beyond 12 digits, with
   ".0" after an integral value. *)
let add_decimal buf s k =
  let s = ref s and k = ref k in
  while !s mod 10 = 0 do
    s := !s / 10;
    incr k
  done;
  let b = Bytes.create scratch_len in
  let start = fill b scratch_len (- !s) in
  let n = scratch_len - start in
  let e = !k + n - 1 in
  if e < -4 || e >= if n <= 12 then 12 else 17 then begin
    Buffer.add_char buf (Bytes.unsafe_get b start);
    if n > 1 then begin
      Buffer.add_char buf '.';
      Buffer.add_subbytes buf b (start + 1) (n - 1)
    end;
    Buffer.add_char buf 'e';
    Buffer.add_char buf (if e < 0 then '-' else '+');
    let e = abs e in
    if e >= 100 then Buffer.add_char buf (digit (e / 100));
    Buffer.add_char buf pairs.[2 * (e mod 100)];
    Buffer.add_char buf pairs.[(2 * (e mod 100)) + 1]
  end
  else if e < 0 then begin
    Buffer.add_string buf "0.";
    for _ = 2 to -e do
      Buffer.add_char buf '0'
    done;
    Buffer.add_subbytes buf b start n
  end
  else if n <= e + 1 then begin
    Buffer.add_subbytes buf b start n;
    for _ = 1 to e + 1 - n do
      Buffer.add_char buf '0'
    done;
    Buffer.add_string buf ".0"
  end
  else begin
    Buffer.add_subbytes buf b start (e + 1);
    Buffer.add_char buf '.';
    Buffer.add_subbytes buf b (start + e + 1) (n - e - 1)
  end

(* The shortest decimal in the rounding interval of c 2^q (paper, figure 7;
   the one-digit-fewer test starts at s >= 10 rather than 100 because no
   minimum length is imposed here). *)
let add_shortest buf ~q ~c =
  let out = c land 1 in
  let cb = c lsl 2 in
  let cbr = cb + 2 in
  let regular = c <> c_min || q = q_min in
  let cbl = if regular then cb - 2 else cb - 1 in
  let k = if regular then flog10pow2 q else flog10_three_quarters_pow2 q in
  let h = q + flog2pow10 (-k) + 2 in
  let i = 16 * (k - Jsonx_pow10.k_min) in
  let g1 = String.get_int64_be Jsonx_pow10.g i in
  let g0 = String.get_int64_be Jsonx_pow10.g (i + 8) in
  let vb = rop g1 g0 (cb lsl h) in
  let vbl = rop g1 g0 (cbl lsl h) in
  let vbr = rop g1 g0 (cbr lsl h) in
  let s = vb asr 2 in
  let sp10 = 10 * (s / 10) in
  let tp10 = sp10 + 10 in
  let upin = vbl + out <= sp10 lsl 2 in
  let wpin = (tp10 lsl 2) + out <= vbr in
  if s >= 10 && upin <> wpin then
    add_decimal buf (if upin then sp10 else tp10) k
  else
    let t = s + 1 in
    let uin = vbl + out <= s lsl 2 in
    let win = (t lsl 2) + out <= vbr in
    if uin <> win then add_decimal buf (if uin then s else t) k
    else
      let cmp = vb - ((s + t) lsl 1) in
      add_decimal buf
        (if cmp < 0 || (cmp = 0 && s land 1 = 0) then s else t)
        k

let add_float buf x =
  if Float.is_integer x && Float.abs x < 1e15 then begin
    if Float.sign_bit x && x = 0. then Buffer.add_char buf '-' (* -0. *);
    add_int buf (Float.to_int x);
    Buffer.add_string buf ".0"
  end
  else if Float.is_finite x then begin
    let bits = Int64.bits_of_float x in
    if Int64.compare bits 0L < 0 then Buffer.add_char buf '-';
    let t = Int64.to_int bits land (c_min - 1) in
    let bq = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF in
    if bq = 0 then add_shortest buf ~q:q_min ~c:t
    else add_shortest buf ~q:(bq - 1075) ~c:(c_min lor t)
  end
  else Buffer.add_string buf "null"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> add_float buf f
  | String s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List (item :: items) ->
      Buffer.add_char buf '[';
      write buf item;
      write_items buf items;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (field :: fields) ->
      Buffer.add_char buf '{';
      write_field buf field;
      write_fields buf fields;
      Buffer.add_char buf '}'

and write_items buf = function
  | [] -> ()
  | item :: items ->
      Buffer.add_char buf ',';
      write buf item;
      write_items buf items

and write_field buf (k, v) =
  escape buf k;
  Buffer.add_char buf ':';
  write buf v

and write_fields buf = function
  | [] -> ()
  | field :: fields ->
      Buffer.add_char buf ',';
      write_field buf field;
      write_fields buf fields

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* {2 Parsing}

   A cursor over the input, scanned by top-level functions, so no closure
   is built per parse.  Plain integers and escape-free strings are read in
   place; numbers that are not plain integers go through
   [float_of_string], strings with escapes through a buffer. *)

exception Parse_error of string

(* The protocol nests at most five levels; the bound keeps a line of
   brackets from recursing once per byte. *)
let max_depth = 256

type cursor = { s : string; mutable pos : int }

let error cur msg =
  raise (Parse_error (msg ^ " at offset " ^ string_of_int cur.pos))

let char_at s i c = i < String.length s && String.unsafe_get s i = c
let at cur c = char_at cur.s cur.pos c

let rec skip_ws cur =
  if cur.pos < String.length cur.s then
    match String.unsafe_get cur.s cur.pos with
    | ' ' | '\t' | '\n' | '\r' ->
        cur.pos <- cur.pos + 1;
        skip_ws cur
    | _ -> ()

let expect cur c =
  if at cur c then cur.pos <- cur.pos + 1
  else error cur ("expected '" ^ Char.escaped c ^ "'")

let rec matches s i word j =
  j = String.length word
  || (String.unsafe_get s i = String.unsafe_get word j
     && matches s (i + 1) word (j + 1))

let literal cur word value =
  if
    cur.pos + String.length word <= String.length cur.s
    && matches cur.s cur.pos word 0
  then begin
    cur.pos <- cur.pos + String.length word;
    value
  end
  else error cur ("expected " ^ word)

(* The string body after an escape, decoded into [buf]. *)
let rec parse_escaped cur buf =
  let s = cur.s and n = String.length cur.s in
  if cur.pos >= n then error cur "unterminated string"
  else begin
    let c = s.[cur.pos] in
    cur.pos <- cur.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' ->
        (if cur.pos >= n then error cur "unterminated escape"
         else begin
           let e = s.[cur.pos] in
           cur.pos <- cur.pos + 1;
           match e with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'u' ->
               if cur.pos + 4 > n then error cur "truncated \\u escape";
               let code =
                 try int_of_string ("0x" ^ String.sub s cur.pos 4)
                 with _ -> error cur "bad \\u escape"
               in
               cur.pos <- cur.pos + 4;
               (* Encode the BMP code point as UTF-8. *)
               if code < 0x80 then Buffer.add_char buf (Char.chr code)
               else if code < 0x800 then begin
                 Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                 Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
               end
               else begin
                 Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                 Buffer.add_char buf
                   (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                 Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
               end
           | _ -> error cur "unknown escape"
         end);
        parse_escaped cur buf
    | c ->
        Buffer.add_char buf c;
        parse_escaped cur buf
  end

let rec plain_end s i n =
  if i >= n then i
  else
    match String.unsafe_get s i with
    | '"' | '\\' -> i
    | _ -> plain_end s (i + 1) n

let parse_string cur =
  expect cur '"';
  let s = cur.s and start = cur.pos in
  let stop = plain_end s start (String.length s) in
  if char_at s stop '"' then begin
    cur.pos <- stop + 1;
    String.sub s start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf s start (stop - start);
    cur.pos <- stop;
    parse_escaped cur buf
  end

let rec number_end s i n =
  if i < n then
    match String.unsafe_get s i with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> number_end s (i + 1) n
    | _ -> i
  else i

(* -|v| for the decimal digits s.[i..stop), or 1 when a character is not a
   digit or -|v| would fall below [limit]: exactly the inputs
   [int_of_string] refuses among number characters. *)
let rec neg_digits s i stop acc limit =
  if i = stop then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c ->
        let d = Char.code c - 48 in
        if acc < (limit + d) / 10 then 1
        else neg_digits s (i + 1) stop ((acc * 10) - d) limit
    | _ -> 1

let parse_number cur =
  let s = cur.s and start = cur.pos in
  let stop = number_end s start (String.length s) in
  cur.pos <- stop;
  let neg = char_at s start '-' in
  let first = if neg || char_at s start '+' then start + 1 else start in
  let v =
    if first < stop then
      neg_digits s first stop 0 (if neg then min_int else -max_int)
    else 1
  in
  if v <= 0 then Int (if neg then v else -v)
  else
    let text = String.sub s start (stop - start) in
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> error cur ("bad number \"" ^ String.escaped text ^ "\"")

let rec parse_value cur depth =
  skip_ws cur;
  if cur.pos >= String.length cur.s then error cur "unexpected end of input";
  match String.unsafe_get cur.s cur.pos with
  | '"' -> String (parse_string cur)
  | 'n' -> literal cur "null" Null
  | 't' -> literal cur "true" (Bool true)
  | 'f' -> literal cur "false" (Bool false)
  | '[' ->
      if depth >= max_depth then error cur "nesting too deep";
      cur.pos <- cur.pos + 1;
      skip_ws cur;
      if at cur ']' then begin
        cur.pos <- cur.pos + 1;
        List []
      end
      else parse_items cur (depth + 1) []
  | '{' ->
      if depth >= max_depth then error cur "nesting too deep";
      cur.pos <- cur.pos + 1;
      skip_ws cur;
      if at cur '}' then begin
        cur.pos <- cur.pos + 1;
        Obj []
      end
      else parse_fields cur (depth + 1) []
  | _ -> parse_number cur

and parse_items cur depth acc =
  let v = parse_value cur depth in
  skip_ws cur;
  if at cur ',' then begin
    cur.pos <- cur.pos + 1;
    parse_items cur depth (v :: acc)
  end
  else if at cur ']' then begin
    cur.pos <- cur.pos + 1;
    List (List.rev (v :: acc))
  end
  else error cur "expected ',' or ']'"

and parse_fields cur depth acc =
  skip_ws cur;
  let k = parse_string cur in
  skip_ws cur;
  expect cur ':';
  let v = parse_value cur depth in
  skip_ws cur;
  if at cur ',' then begin
    cur.pos <- cur.pos + 1;
    parse_fields cur depth ((k, v) :: acc)
  end
  else if at cur '}' then begin
    cur.pos <- cur.pos + 1;
    Obj (List.rev ((k, v) :: acc))
  end
  else error cur "expected ',' or '}'"

let parse s =
  let cur = { s; pos = 0 } in
  let v = parse_value cur 0 in
  skip_ws cur;
  if cur.pos <> String.length s then error cur "trailing garbage";
  v

let rec assoc key = function
  | [] -> None
  | (k, v) :: fields -> if String.equal k key then Some v else assoc key fields

let member key = function Obj fields -> assoc key fields | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
