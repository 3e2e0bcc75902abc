(** The little-endian communication protocol between ldb and the nub
    (Sec. 4.2).

    Every message is one opcode byte followed by fixed-width little-endian
    fields.  Values fetched from target memory travel in little-endian
    order {e regardless of host and target byte order} — the nub performs
    the target-order access and re-serializes; this is what lets the same
    debugger code drive big- and little-endian targets.

    Messages are {e pure byte strings} here; putting them on a wire —
    framing, sequencing, checksumming — is {!Frame}'s job, and the
    decoders below are total: [decode_request] and [decode_reply] return
    [Error] on any malformed input (unknown opcode, out-of-range size
    field, truncated or over-long body) and never raise, so a corrupted
    frame that slips past the checksum still cannot crash either end.
    The codec is validated by qcheck round-trip and never-raises
    properties in the test suite.

    Deliberately absent, as in the paper: breakpoint {e planting}
    messages.  Breakpoints are implemented entirely in the debugger with
    ordinary fetches and stores.  [Step] is the optional protocol
    extension the paper's Sec. 7.1 anticipates: a nub may not offer it,
    and the debugger must keep functioning when it doesn't.  The one
    breakpoint-adjacent extension is the conditional pair
    [Set_cond]/[Clear_cond]: a verified {!Bpcode} program shipped to the
    nub so a condition in a hot loop is decided target-side instead of
    costing a round trip per trap (see {!Bpverify}). *)

open Ldb_util.Bytecodec

type request =
  | Hello
  | Fetch of { space : char; addr : int; size : int }
      (** [size] in 1..16 bytes; the reply carries the value little-endian *)
  | Store of { space : char; addr : int; bytes : string }
  | Continue  (** restore registers from the context and resume *)
  | Step      (** protocol extension (Sec. 7.1): restore, execute one
                  instruction, stop again.  Nubs may not support it; the
                  debugger must keep working without it. *)
  | Kill
  | Detach    (** break the connection but preserve target state *)
  | Dump of { offset : int }
      (** request a window of the target's core dump starting at byte
          [offset]; the dump is serialized once per stop and served in
          {!Core_chunk} pieces of at most {!max_core_chunk} bytes *)
  | Set_cond of { addr : int; prog : string }
      (** attach a verified {!Bpcode} program to the breakpoint at
          [addr]: on a trap there, the nub evaluates the condition and
          resumes silently unless it holds.  The nub re-verifies the
          program on receipt — a hostile debugger cannot ship unproved
          code — and answers {!Stored} or {!Nub_error}. *)
  | Clear_cond of { addr : int }
      (** forget the condition at [addr]; traps there report again *)
  | Record of { spacing : int }
      (** start recording an execution trace at the current stop, taking
          a checkpoint roughly every [spacing] instructions (see
          {!Trace}); a previous recording is discarded.  Valid only while
          the target is stopped — answered with {!Stored} or
          {!Nub_error}. *)
  | Fetch_trace of { offset : int }
      (** request a window of the serialized trace starting at byte
          [offset]; served in {!Trace_chunk} pieces like a core dump *)

type stop_state =
  | St_running
  | St_stopped of { signal : int; code : int; ctx_addr : int }
  | St_exited of int

type reply =
  | Hello_reply of { arch : string; state : stop_state; can_step : bool }
  | Fetched of string
  | Stored
  | Event of { signal : int; code : int; ctx_addr : int }
      (** unsolicited: the target hit a signal *)
  | Exit_event of int
  | Nub_error of string
  | Core_chunk of { total : int; offset : int; chunk : string }
      (** a window of the serialized core dump: [total] is the whole
          dump's size, [chunk] the bytes starting at [offset] *)
  | Cond_hit of { signal : int; code : int; ctx_addr : int; suppressed : int }
      (** unsolicited, like {!Event}, but from a conditional breakpoint
          whose condition held; [suppressed] counts the trap visits the
          nub resumed silently since the last report *)
  | Trace_chunk of { total : int; offset : int; chunk : string }
      (** a window of the serialized execution trace, shaped exactly
          like {!Core_chunk} *)

(* --- field limits ------------------------------------------------------ *)

(** Fetch and Store move at most this many bytes per request; larger
    transfers are split by the caller.  A decoded size outside 1..16 is a
    protocol violation, not a request the nub should try to honor. *)
let max_transfer = 16

(** Strings (architecture names, error messages) are bounded so a
    corrupted length field cannot demand an absurd allocation. *)
let max_string = 4096

(** Core-dump windows per {!Core_chunk} reply; kept well under
    [max_string] (and the frame payload limit) so a dump transfer is just
    an ordinary sequence of framed RPCs. *)
let max_core_chunk = 2048

(** Condition programs per {!Set_cond}: bounded like {!max_string}, and
    aligned with {!Bpcode.max_prog_bytes} so a length the bytecode layer
    would refuse never even decodes. *)
let max_cond_prog = 1024

(** Trace windows per {!Trace_chunk} reply, bounded like
    {!max_core_chunk} for the same reason. *)
let max_trace_chunk = 2048

(* --- serialization ---------------------------------------------------- *)

exception Encode_error of string

(** A length-prefixed string within {!max_string}. *)
let prefixed s =
  if String.length s > max_string then
    raise (Encode_error (Printf.sprintf "string of %d bytes exceeds protocol limit"
                           (String.length s)));
  u32_le (String.length s) ^ s

let check_transfer what n =
  if n < 1 || n > max_transfer then
    raise (Encode_error (Printf.sprintf "%s size %d outside 1..%d" what n max_transfer))

let encode_request (r : request) : string =
  match r with
  | Hello -> "H"
  | Fetch { space; addr; size } ->
      check_transfer "fetch" size;
      Printf.sprintf "F%c" space ^ u32_le addr ^ String.make 1 (Char.chr size)
  | Store { space; addr; bytes } ->
      check_transfer "store" (String.length bytes);
      Printf.sprintf "S%c" space ^ u32_le addr
      ^ String.make 1 (Char.chr (String.length bytes))
      ^ bytes
  | Continue -> "C"
  | Step -> "T"
  | Kill -> "K"
  | Detach -> "D"
  | Dump { offset } -> "U" ^ u32_le offset
  | Set_cond { addr; prog } ->
      let n = String.length prog in
      if n < 1 || n > max_cond_prog then
        raise (Encode_error (Printf.sprintf "condition program of %d bytes outside 1..%d"
                               n max_cond_prog));
      "B" ^ u32_le addr ^ u32_le n ^ prog
  | Clear_cond { addr } -> "Q" ^ u32_le addr
  | Record { spacing } ->
      if spacing < 1 then raise (Encode_error "checkpoint spacing must be positive");
      "R" ^ u32_le spacing
  | Fetch_trace { offset } -> "G" ^ u32_le offset

let encode_reply (r : reply) : string =
  match r with
  | Hello_reply { arch; state; can_step } ->
      let st =
        match state with
        | St_running -> "r" ^ u32_le 0 ^ u32_le 0 ^ u32_le 0
        | St_stopped { signal; code; ctx_addr } ->
            "s" ^ u32_le signal ^ u32_le code ^ u32_le ctx_addr
        | St_exited status -> "x" ^ u32_le status ^ u32_le 0 ^ u32_le 0
      in
      "h" ^ st ^ (if can_step then "S" else "-") ^ prefixed arch
  | Fetched bytes ->
      if String.length bytes > 255 then raise (Encode_error "fetched value too long");
      "f" ^ String.make 1 (Char.chr (String.length bytes)) ^ bytes
  | Stored -> "a"
  | Event { signal; code; ctx_addr } ->
      "e" ^ u32_le signal ^ u32_le code ^ u32_le ctx_addr
  | Exit_event status -> "X" ^ u32_le status
  | Nub_error msg -> "E" ^ prefixed msg
  | Core_chunk { total; offset; chunk } ->
      if String.length chunk > max_core_chunk then
        raise (Encode_error "core chunk too long");
      "u" ^ u32_le total ^ u32_le offset ^ prefixed chunk
  | Cond_hit { signal; code; ctx_addr; suppressed } ->
      "j" ^ u32_le signal ^ u32_le code ^ u32_le ctx_addr ^ u32_le suppressed
  | Trace_chunk { total; offset; chunk } ->
      if String.length chunk > max_trace_chunk then
        raise (Encode_error "trace chunk too long");
      "t" ^ u32_le total ^ u32_le offset ^ prefixed chunk

(* --- deserialization (total) ------------------------------------------- *)

let chr c what = Char.chr (u8 c what)

(** Decode a complete request message.  Total: any input that is not the
    exact encoding of a request yields [Error]. *)
let decode_request : string -> (request, string) result =
  decode (fun c ->
      match chr c "request opcode" with
      | 'H' -> Hello
      | 'F' ->
          let space = chr c "fetch space" in
          let addr = u32 c "fetch address" in
          let size = u8 c "fetch size" in
          if size < 1 || size > max_transfer then hard "fetch size outside 1..16";
          Fetch { space; addr; size }
      | 'S' ->
          let space = chr c "store space" in
          let addr = u32 c "store address" in
          let len = u8 c "store size" in
          if len < 1 || len > max_transfer then hard "store size outside 1..16";
          Store { space; addr; bytes = take c len "store bytes" }
      | 'C' -> Continue
      | 'T' -> Step
      | 'K' -> Kill
      | 'D' -> Detach
      | 'U' -> Dump { offset = u32 c "dump offset" }
      | 'B' ->
          let addr = u32 c "condition address" in
          let len = u32 c "condition length" in
          if len < 1 || len > max_cond_prog then
            hard "condition length outside 1..%d" max_cond_prog;
          Set_cond { addr; prog = take c len "condition program" }
      | 'Q' -> Clear_cond { addr = u32 c "condition address" }
      | 'R' ->
          let spacing = u32 c "record spacing" in
          if spacing < 1 then hard "record spacing must be positive";
          Record { spacing }
      | 'G' -> Fetch_trace { offset = u32 c "trace offset" }
      | op -> hard "unknown request opcode %C" op)

(** Decode a complete reply message.  Total, like {!decode_request}. *)
let decode_reply : string -> (reply, string) result =
  decode (fun c ->
      match chr c "reply opcode" with
      | 'h' ->
          let st = chr c "hello state" in
          let a = u32 c "hello a" in
          let b = u32 c "hello b" in
          let cx = u32 c "hello c" in
          let can_step =
            match chr c "hello step flag" with
            | 'S' -> true
            | '-' -> false
            | f -> hard "bad step flag %C" f
          in
          let arch = str c ~limit:max_string "hello arch" in
          let state =
            match st with
            | 'r' -> St_running
            | 's' -> St_stopped { signal = a; code = b; ctx_addr = cx }
            | 'x' -> St_exited (Int32.to_int (Int32.of_int a))
            | s -> hard "bad hello state %C" s
          in
          Hello_reply { arch; state; can_step }
      | 'f' ->
          let len = u8 c "fetched length" in
          Fetched (take c len "fetched bytes")
      | 'a' -> Stored
      | 'e' ->
          let signal = u32 c "event signal" in
          let code = u32 c "event code" in
          let ctx_addr = u32 c "event context" in
          Event { signal; code; ctx_addr }
      | 'X' -> Exit_event (i32 c "exit status")
      | 'E' -> Nub_error (str c ~limit:max_string "error message")
      | 'u' ->
          let total = u32 c "core total" in
          let offset = u32 c "core offset" in
          let chunk = str c ~limit:max_core_chunk "core chunk" in
          Core_chunk { total; offset; chunk }
      | 'j' ->
          let signal = u32 c "hit signal" in
          let code = u32 c "hit code" in
          let ctx_addr = u32 c "hit context" in
          let suppressed = u32 c "hit suppressed count" in
          Cond_hit { signal; code; ctx_addr; suppressed }
      | 't' ->
          let total = u32 c "trace total" in
          let offset = u32 c "trace offset" in
          let chunk = str c ~limit:max_trace_chunk "trace chunk" in
          Trace_chunk { total; offset; chunk }
      | op -> hard "unknown reply opcode %C" op)

let pp_request ppf = function
  | Hello -> Fmt.string ppf "Hello"
  | Fetch { space; addr; size } -> Fmt.pf ppf "Fetch %c:%#x/%d" space addr size
  | Store { space; addr; bytes } ->
      Fmt.pf ppf "Store %c:%#x/%d" space addr (String.length bytes)
  | Continue -> Fmt.string ppf "Continue"
  | Step -> Fmt.string ppf "Step"
  | Kill -> Fmt.string ppf "Kill"
  | Detach -> Fmt.string ppf "Detach"
  | Dump { offset } -> Fmt.pf ppf "Dump@%#x" offset
  | Set_cond { addr; prog } -> Fmt.pf ppf "SetCond %#x/%d" addr (String.length prog)
  | Clear_cond { addr } -> Fmt.pf ppf "ClearCond %#x" addr
  | Record { spacing } -> Fmt.pf ppf "Record/%d" spacing
  | Fetch_trace { offset } -> Fmt.pf ppf "FetchTrace@%#x" offset

let pp_reply ppf = function
  | Hello_reply { arch; _ } -> Fmt.pf ppf "HelloReply(%s)" arch
  | Fetched b -> Fmt.pf ppf "Fetched/%d" (String.length b)
  | Stored -> Fmt.string ppf "Stored"
  | Event { signal; _ } -> Fmt.pf ppf "Event(sig %d)" signal
  | Exit_event s -> Fmt.pf ppf "Exit(%d)" s
  | Nub_error m -> Fmt.pf ppf "Error(%s)" m
  | Core_chunk { total; offset; chunk } ->
      Fmt.pf ppf "Core %d+%d/%d" offset (String.length chunk) total
  | Cond_hit { signal; suppressed; _ } ->
      Fmt.pf ppf "CondHit(sig %d, %d suppressed)" signal suppressed
  | Trace_chunk { total; offset; chunk } ->
      Fmt.pf ppf "Trace %d+%d/%d" offset (String.length chunk) total
