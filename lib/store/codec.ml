exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt
let magic = "MACSTORE1"
let version = 1

let header =
  Telemetry.Jsonx.to_string
    (Telemetry.Jsonx.Obj
       [
         ("magic", Telemetry.Jsonx.String magic);
         ("version", Telemetry.Jsonx.Int version);
       ])

let check_header line =
  match Telemetry.Jsonx.parse line with
  | exception Telemetry.Jsonx.Parse_error msg ->
      corrupt "unreadable segment header: %s" msg
  | json -> (
      (match Telemetry.Jsonx.member "magic" json with
      | Some (Telemetry.Jsonx.String m) when String.equal m magic -> ()
      | _ -> corrupt "bad magic (not a store segment)");
      match Telemetry.Jsonx.member "version" json with
      | Some (Telemetry.Jsonx.Int v) when v = version -> ()
      | Some (Telemetry.Jsonx.Int v) ->
          corrupt "unsupported store version %d (expected %d)" v version
      | _ -> corrupt "segment header missing version")

(* The checksum covers the payload bytes as they sit in the segment.  Jsonx
   parse inverts its rendering (a Float reads back as the same Float), so a
   re-rendering would hash the same; the raw bytes are hashed because this
   is fault detection: verification needs no parse, and any flipped bit in
   either the payload or the digest itself is caught. *)
let encode ~key value =
  let payload =
    Telemetry.Jsonx.to_string
      (Telemetry.Jsonx.Obj
         [ ("k", Telemetry.Jsonx.String key); ("v", value) ])
  in
  Prelude.Util.hex64 (Prelude.Util.fnv1a64 payload) ^ ":" ^ payload

let decode line =
  let n = String.length line in
  if n < 18 || line.[16] <> ':' then None
  else
    let digest = String.sub line 0 16 in
    let payload = String.sub line 17 (n - 17) in
    if
      not
        (String.equal digest
           (Prelude.Util.hex64 (Prelude.Util.fnv1a64 payload)))
    then None
    else
      match Telemetry.Jsonx.parse payload with
      | exception Telemetry.Jsonx.Parse_error _ -> None
      | json -> (
          match
            (Telemetry.Jsonx.member "k" json, Telemetry.Jsonx.member "v" json)
          with
          | Some (Telemetry.Jsonx.String key), Some value -> Some (key, value)
          | _ -> None)
