(** The server's wire protocol: versioned, length-prefixed, CRC-framed
    messages between a debug client and the {!Server}.

    This is the nub transport's robustness discipline ({!Ldb_nub.Frame})
    applied one layer up, where the peers are debug {e clients} rather
    than nubs — and a client, unlike a nub, must be presumed hostile.
    The contract is therefore the same but stricter:

    - every message travels in a frame of the shared frame codec
      ({!Ldb_util.Bytecodec}), the wire's instance with magic
      [0xF5 0x5B], so corruption and truncation are detectable and a
      receiver can {e resynchronize} by scanning for the next magic; the
      nub's instance has a different magic pair, so neither stream can
      mistake the other's frames for its own;
    - the connection opens with a versioned hello carrying the literal
      {!version_magic} ([LDBSRV1]); anything else is a typed protocol
      error, answered and closed before a session is ever bound;
    - every decoder is {b total}: arbitrary bytes yield a typed
      {!error}, never an exception, and every length field is bounded
      before it is trusted, so a lying header cannot demand an absurd
      allocation or stall the stream (qcheck holds the never-raises and
      round-trip properties in [test_swire.ml]).

    The codec is pure — framing over actual byte endpoints, deadlines
    and scheduling live in {!Evloop}, which consumes {!scan} results
    over whatever bytes have arrived. *)

open Ldb_util
open Ldb_machine
open Bytecodec

let version_magic = "LDBSRV1"

(** Client→server payloads are commands: small by construction.  A frame
    claiming more is a lying length field, not a big command. *)
let max_client_payload = 8192

(** Server→client payloads include serialized core dumps. *)
let max_server_payload = (1 lsl 24) + 4096

let max_text = Command.max_text
let max_addrs = 4096
let max_core_wire = 1 lsl 24

(* --- framing ------------------------------------------------------------------ *)

(** The wire's instance of the shared frame codec in each direction: one
    magic pair, [0xF5 0x5B], and the receiver's trust bound.  A client
    must not send a command [from_client] refuses. *)
let from_client = { magic0 = '\xf5'; magic1 = '\x5b'; max_payload = max_client_payload }

let from_server = { from_client with max_payload = max_server_payload }

(** What a hostile or damaged byte stream did.  Every decoder failure is
    one of these; none of them raises. *)
type error = Bytecodec.error =
  | Garbage of int
  | Bad_length of { seq : int; claimed : int; limit : int }
  | Bad_crc of { seq : int }
  | Bad_message of string

let error_to_string = Bytecodec.error_to_string

type scan = Bytecodec.scan =
  | S_frame of { seq : int; payload : string; used : int }
  | S_skip of { skip : int; error : error }
  | S_need

(** Wrap [payload] in a frame, in either direction. *)
let seal ~seq payload = Bytecodec.seal from_server ~seq payload

(** Scan [buf] for the next frame.  [max_payload] is the receiver's trust
    bound: servers scan client bytes with {!max_client_payload} (the
    default), clients scan replies with {!max_server_payload}. *)
let scan ?max_payload buf = Bytecodec.scan from_client ?max_payload buf

(* --- message bodies ----------------------------------------------------------- *)

type client_msg =
  | C_hello of { magic : string }  (** must carry {!version_magic} *)
  | C_cmd of Server.command
  | C_bye

type server_msg =
  | S_hello of { session : int }  (** handshake accepted; session bound *)
  | S_reply of Server.reply
  | S_refused of Server.refusal
  | S_error of string  (** typed protocol error, echoed to the client *)
  | S_bye of string  (** server-initiated goodbye (drain, quarantine) *)

(* --- commands ----------------------------------------------------------------- *)

let add_command (b : Buffer.t) (cmd : Server.command) : unit =
  match cmd with
  | Server.Break_function f ->
      Buffer.add_char b 'f';
      add_str b f
  | Server.Break_line { file; line } ->
      Buffer.add_char b 'l';
      add_bool b (file <> None);
      Option.iter (add_str b) file;
      add_u32 b line
  | Server.Condition { addr; cond } ->
      Buffer.add_char b 'k';
      add_u32 b addr;
      add_str b cond
  | Server.Continue -> Buffer.add_char b 'c'
  | Server.Step_source -> Buffer.add_char b 's'
  | Server.Where -> Buffer.add_char b 'w'
  | Server.Backtrace -> Buffer.add_char b 'b'
  | Server.Print v ->
      Buffer.add_char b 'p';
      add_str b v
  | Server.Read_int v ->
      Buffer.add_char b 'r';
      add_str b v
  | Server.Fetch_core -> Buffer.add_char b 'o'
  | Server.Detach -> Buffer.add_char b 'd'
  | Server.Kill -> Buffer.add_char b 'x'

let decode_command (c : cursor) : Server.command =
  match Char.chr (u8 c "command opcode") with
  | 'f' -> Server.Break_function (str c ~limit:max_text "function name")
  | 'l' ->
      let file =
        if bool c "file flag" then Some (str c ~limit:max_text "file name") else None
      in
      let line = u32 c "line" in
      Server.Break_line { file; line }
  | 'k' ->
      let addr = u32 c "condition addr" in
      let cond = str c ~limit:max_text "condition text" in
      Server.Condition { addr; cond }
  | 'c' -> Server.Continue
  | 's' -> Server.Step_source
  | 'w' -> Server.Where
  | 'b' -> Server.Backtrace
  | 'p' -> Server.Print (str c ~limit:max_text "variable name")
  | 'r' -> Server.Read_int (str c ~limit:max_text "variable name")
  | 'o' -> Server.Fetch_core
  | 'd' -> Server.Detach
  | 'x' -> Server.Kill
  | op -> hard "unknown command opcode %C" op

(* --- replies ------------------------------------------------------------------ *)

let add_state (b : Buffer.t) : Ldb.state -> unit = function
  | Ldb.Running -> Buffer.add_char b 'r'
  | Ldb.Stopped { signal; code; ctx_addr } ->
      Buffer.add_char b 's';
      add_u32 b (Signal.number signal);
      add_u32 b code;
      add_u32 b ctx_addr
  | Ldb.Exited n ->
      Buffer.add_char b 'x';
      add_u32 b n
  | Ldb.Detached -> Buffer.add_char b 'd'

let decode_state (c : cursor) : Ldb.state =
  match Char.chr (u8 c "state tag") with
  | 'r' -> Ldb.Running
  | 's' ->
      let sign = u32 c "stop signal" in
      let code = u32 c "stop code" in
      let ctx_addr = u32 c "stop ctx" in
      let signal =
        match Signal.of_number sign with
        | Some s -> s
        | None -> hard "unknown signal %d" sign
      in
      Ldb.Stopped { signal; code; ctx_addr }
  | 'x' -> Ldb.Exited (i32 c "exit status")
  | 'd' -> Ldb.Detached
  | t -> hard "unknown state tag %C" t

let add_reply (b : Buffer.t) (r : Server.reply) : unit =
  match r with
  | Server.R_unit -> Buffer.add_char b 'u'
  | Server.R_addr a ->
      Buffer.add_char b 'a';
      add_u32 b a
  | Server.R_addrs addrs ->
      Buffer.add_char b 'A';
      add_u32 b (List.length addrs);
      List.iter (add_u32 b) addrs
  | Server.R_state st ->
      Buffer.add_char b 's';
      add_state b st
  | Server.R_text t ->
      Buffer.add_char b 't';
      add_str b t
  | Server.R_int n ->
      Buffer.add_char b 'i';
      add_u32 b (n land 0xffffffff)
  | Server.R_core co ->
      Buffer.add_char b 'C';
      add_str b (Core.to_string co)

let decode_reply (c : cursor) : Server.reply =
  match Char.chr (u8 c "reply opcode") with
  | 'u' -> Server.R_unit
  | 'a' -> Server.R_addr (u32 c "addr")
  | 'A' ->
      let n = u32 c "addr count" in
      if n > max_addrs then hard "%d addresses over the limit" n;
      Server.R_addrs (List.init n (fun _ -> u32 c "addr"))
  | 's' -> Server.R_state (decode_state c)
  | 't' -> Server.R_text (str c ~limit:max_text "reply text")
  | 'i' -> Server.R_int (i32 c "reply int")
  | 'C' -> (
      let bytes = str c ~limit:max_core_wire "core bytes" in
      match Core.of_string bytes with
      | Ok (co, []) -> Server.R_core co
      | Ok (_, _ :: _) -> raise (Hard "damaged core in reply")
      | Error m -> raise (Hard ("bad core in reply: " ^ m)))
  | op -> hard "unknown reply opcode %C" op

(* --- refusals ----------------------------------------------------------------- *)

let add_refusal (b : Buffer.t) (r : Server.refusal) : unit =
  match r with
  | Server.No_such_session id ->
      Buffer.add_char b 'n';
      add_u32 b id
  | Server.Session_closed id ->
      Buffer.add_char b 'c';
      add_u32 b id
  | Server.Session_down { reason; salvaged } ->
      Buffer.add_char b 'd';
      add_bool b salvaged;
      add_str b reason
  | Server.Overloaded m ->
      Buffer.add_char b 'o';
      add_str b m
  | Server.Failed m ->
      Buffer.add_char b 'f';
      add_str b m

let decode_refusal (c : cursor) : Server.refusal =
  match Char.chr (u8 c "refusal opcode") with
  | 'n' -> Server.No_such_session (u32 c "session id")
  | 'c' -> Server.Session_closed (u32 c "session id")
  | 'd' ->
      let salvaged = bool c "salvage flag" in
      Server.Session_down { reason = str c ~limit:max_text "down reason"; salvaged }
  | 'o' -> Server.Overloaded (str c ~limit:max_text "overload reason")
  | 'f' -> Server.Failed (str c ~limit:max_text "failure reason")
  | op -> hard "unknown refusal opcode %C" op

(* --- whole messages ----------------------------------------------------------- *)

let encode_client (m : client_msg) : string =
  let b = Buffer.create 32 in
  (match m with
  | C_hello { magic } ->
      Buffer.add_char b 'H';
      add_str b magic
  | C_cmd cmd ->
      Buffer.add_char b 'C';
      add_command b cmd
  | C_bye -> Buffer.add_char b 'B');
  Buffer.contents b

let encode_server (m : server_msg) : string =
  let b = Buffer.create 64 in
  (match m with
  | S_hello { session } ->
      Buffer.add_char b 'H';
      add_str b version_magic;
      add_u32 b session
  | S_reply r ->
      Buffer.add_char b 'R';
      add_reply b r
  | S_refused r ->
      Buffer.add_char b 'F';
      add_refusal b r
  | S_error m ->
      Buffer.add_char b 'E';
      add_str b m
  | S_bye m ->
      Buffer.add_char b 'D';
      add_str b m);
  Buffer.contents b

(** Decode a whole payload; anything undecodable is a typed
    {!Bad_message}. *)
let decode_payload f payload = Result.map_error (fun m -> Bad_message m) (decode f payload)

(** Decode a client payload.  Total: anything undecodable is a typed
    {!Bad_message}, never an exception. *)
let decode_client : string -> (client_msg, error) result =
  decode_payload (fun c ->
      match Char.chr (u8 c "message opcode") with
      | 'H' -> C_hello { magic = str c ~limit:64 "hello magic" }
      | 'C' -> C_cmd (decode_command c)
      | 'B' -> C_bye
      | op -> hard "unknown client opcode %C" op)

(** Decode a server payload.  Total, like {!decode_client}. *)
let decode_server : string -> (server_msg, error) result =
  decode_payload (fun c ->
      match Char.chr (u8 c "message opcode") with
      | 'H' ->
          let magic = str c ~limit:64 "hello magic" in
          if magic <> version_magic then
            hard "hello answers %S, not %S" magic version_magic;
          S_hello { session = u32 c "session id" }
      | 'R' -> S_reply (decode_reply c)
      | 'F' -> S_refused (decode_refusal c)
      | 'E' -> S_error (str c ~limit:max_text "error text")
      | 'D' -> S_bye (str c ~limit:max_text "bye text")
      | op -> hard "unknown server opcode %C" op)

(** Render a server message the way transcripts and logs want it. *)
let server_msg_to_string = function
  | S_hello { session } -> Printf.sprintf "hello: session %d" session
  | S_reply r -> "ok: " ^ Server.reply_to_string r
  | S_refused r -> "refused: " ^ Server.refusal_to_string r
  | S_error m -> "protocol error: " ^ m
  | S_bye m -> "bye: " ^ m
