(** A minimal JSON value type with a printer and parser.

    Dependency-light on purpose: the telemetry sinks need to write JSONL
    lines and the tests need to read them back, and pulling a full JSON
    library into every instrumented layer would violate the "prelude-only"
    footprint of the telemetry stack.  Numbers parse back as [Int] when the
    literal is integral and fits, [Float] otherwise; non-finite floats
    render as [null] (JSON has no representation for them).

    A finite [Float] renders as its shortest round-trip decimal, so it
    parses back bit-identically and as a [Float]: the text always carries a
    ['.'] or an exponent.  Up to 12 significant digits the bytes are those
    of C's [%.12g] (integral values below 1e15: [%.1f]); longer digit
    strings are laid out as [%.17g] lays out its digits.  Hence [parse]
    inverts [to_string], floats bit for bit, up to non-finite floats. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line rendering (no trailing newline). *)

exception Parse_error of string

val max_depth : int
(** The deepest nesting of arrays and objects [parse] accepts (256). *)

val parse : string -> t
(** Parse one complete JSON document.  @raise Parse_error on malformed
    input, trailing garbage, or nesting deeper than {!max_depth}. *)

val member : string -> t -> t option
(** [member key json] is the field [key] of an [Obj]; [None] for other
    constructors or a missing key. *)

val to_float_opt : t -> float option
(** Numeric coercion: [Int] and [Float] succeed, everything else is
    [None]. *)
