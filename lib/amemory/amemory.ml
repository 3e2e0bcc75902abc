(** Abstract memories (Sec. 4.1): a machine-independent representation of
    the registers and memory of a target process.

    An abstract memory is a collection of {e spaces}, denoted by lower-case
    letters ('c' code, 'd' data, 'r' registers, 'f' floating registers,
    'x' extra registers); a location is a space plus an integer offset, or
    an {e immediate} — a self-contained cell holding its own bytes.

    Values cross this interface in a canonical little-endian byte order
    (matching the nub protocol); 80-bit floats travel in the packed m68k
    format, the only format that produces them.

    The debugger composes instances into a DAG per stack frame:

    - {e wire}: forwards fetch/store to the nub in the target process;
    - {e alias}: translates register-space locations into code/data-space
      (or immediate) locations where the registers were saved;
    - {e register}: turns sub-register accesses into full-register accesses
      so that target byte order becomes irrelevant;
    - {e joined}: routes each space to the memory serving it.

    Machine-independent code manipulates machine-dependent data — the alias
    tables — so none of this code depends on the architecture it runs on,
    and cross-architecture debugging is free. *)

open Ldb_util

exception Error of string

let fail fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type location =
  | Absolute of { space : char; offset : int }
  | Immediate of Bytes.t

let absolute space offset = Absolute { space; offset }

(** A fresh immediate cell of [width] bytes, initially zero. *)
let immediate width = Immediate (Bytes.make width '\000')

let immediate_i32 (v : int32) =
  let b = Bytes.make 4 '\000' in
  Endian.set_u32 Little b 0 v;
  Immediate b

let pp_location ppf = function
  | Absolute { space; offset } -> Fmt.pf ppf "%c:%#x" space offset
  | Immediate b -> Fmt.pf ppf "imm/%d" (Bytes.length b)

type t = {
  name : string;
  fetch_abs : space:char -> offset:int -> size:int -> string;
  store_abs : space:char -> offset:int -> bytes_:string -> unit;
}

let name m = m.name

(** Fetch [size] bytes.  Immediate locations are served from their own
    cell, in any memory. *)
let fetch m loc ~size =
  match loc with
  | Immediate cell ->
      if size > Bytes.length cell then
        fail "immediate fetch of %d bytes from %d-byte cell" size (Bytes.length cell)
      else Bytes.sub_string cell 0 size
  | Absolute { space; offset } -> m.fetch_abs ~space ~offset ~size

let store m loc (bytes_ : string) =
  match loc with
  | Immediate cell ->
      if String.length bytes_ > Bytes.length cell then
        fail "immediate store of %d bytes into %d-byte cell" (String.length bytes_)
          (Bytes.length cell)
      else Bytes.blit_string bytes_ 0 cell 0 (String.length bytes_)
  | Absolute { space; offset } -> m.store_abs ~space ~offset ~bytes_

(* --- typed accessors (canonical little-endian) ------------------------- *)

let decode_int s =
  let v = ref 0 in
  for i = String.length s - 1 downto 0 do
    v := (!v lsl 8) lor Char.code s.[i]
  done;
  !v

let encode_int v n = String.init n (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

let fetch_u8 m loc = decode_int (fetch m loc ~size:1)
let fetch_i8 m loc = Endian.sext (fetch_u8 m loc) 8
let fetch_u16 m loc = decode_int (fetch m loc ~size:2)
let fetch_i16 m loc = Endian.sext (fetch_u16 m loc) 16
let fetch_u32 m loc = decode_int (fetch m loc ~size:4)

let fetch_i32 m loc : int32 =
  Endian.get_u32 Little (Bytes.of_string (fetch m loc ~size:4)) 0

let store_u8 m loc v = store m loc (encode_int v 1)
let store_u16 m loc v = store m loc (encode_int v 2)

let store_i32 m loc (v : int32) =
  let b = Bytes.create 4 in
  Endian.set_u32 Little b 0 v;
  store m loc (Bytes.to_string b)

let fetch_f32 m loc =
  Int32.float_of_bits (Endian.get_u32 Little (Bytes.of_string (fetch m loc ~size:4)) 0)

let fetch_f64 m loc =
  Int64.float_of_bits (Endian.get_u64 Little (Bytes.of_string (fetch m loc ~size:8)) 0)

let fetch_f80 m loc = Ldb_machine.Float80.of_bytes (fetch m loc ~size:10)

let store_f32 m loc v =
  let b = Bytes.create 4 in
  Endian.set_u32 Little b 0 (Int32.bits_of_float v);
  store m loc (Bytes.to_string b)

let store_f64 m loc v =
  let b = Bytes.create 8 in
  Endian.set_u64 Little b 0 (Int64.bits_of_float v);
  store m loc (Bytes.to_string b)

let store_f80 m loc v = store m loc (Ldb_machine.Float80.to_bytes v)

(** Fetch a floating value of 4, 8, or 10 bytes. *)
let fetch_float m loc ~size =
  match size with
  | 4 -> fetch_f32 m loc
  | 8 -> fetch_f64 m loc
  | 10 -> fetch_f80 m loc
  | n -> fail "fetch_float: bad size %d" n

let store_float m loc ~size v =
  match size with
  | 4 -> store_f32 m loc v
  | 8 -> store_f64 m loc v
  | 10 -> store_f80 m loc v
  | n -> fail "store_float: bad size %d" n

(* --- the wire ----------------------------------------------------------- *)

(** An abstract memory that forwards fetch and store requests to a nub
    through [rpc], a transport that turns a request into a reply (in ldb,
    the resilient retrying [Transport]). *)
let rpc_wire ?(name = "wire") (rpc : Ldb_nub.Proto.request -> Ldb_nub.Proto.reply) : t =
  {
    name;
    fetch_abs =
      (fun ~space ~offset ~size ->
        match rpc (Ldb_nub.Proto.Fetch { space; addr = offset; size }) with
        | Ldb_nub.Proto.Fetched bytes -> bytes
        | Ldb_nub.Proto.Nub_error m -> fail "wire fetch %c:%#x: %s" space offset m
        | _ -> fail "wire fetch %c:%#x: protocol confusion" space offset);
    store_abs =
      (fun ~space ~offset ~bytes_ ->
        match rpc (Ldb_nub.Proto.Store { space; addr = offset; bytes = bytes_ }) with
        | Ldb_nub.Proto.Stored -> ()
        | Ldb_nub.Proto.Nub_error m -> fail "wire store %c:%#x: %s" space offset m
        | _ -> fail "wire store %c:%#x: protocol confusion" space offset);
  }

(* --- alias memory ------------------------------------------------------- *)

(** [alias ~lookup under]: a request for a location [lookup space offset]
    answers is redirected to the location it returns (where the register
    was saved — on the stack, in the context, or an immediate); all other
    requests pass through unchanged.

    The table behind [lookup] is machine-dependent {e data}; this code is
    shared by all targets. *)
let alias ~(lookup : char -> int -> location option) (under : t) : t =
  {
    name = "alias";
    fetch_abs =
      (fun ~space ~offset ~size ->
        match lookup space offset with
        | Some (Immediate cell) ->
            if size > Bytes.length cell then
              fail "alias: %d-byte fetch from %d-byte immediate" size (Bytes.length cell)
            else Bytes.sub_string cell 0 size
        | Some (Absolute { space; offset }) -> under.fetch_abs ~space ~offset ~size
        | None -> under.fetch_abs ~space ~offset ~size);
    store_abs =
      (fun ~space ~offset ~bytes_ ->
        match lookup space offset with
        | Some (Immediate cell) -> Bytes.blit_string bytes_ 0 cell 0 (String.length bytes_)
        | Some (Absolute { space; offset }) -> under.store_abs ~space ~offset ~bytes_
        | None -> under.store_abs ~space ~offset ~bytes_);
  }

(* --- register memory ----------------------------------------------------- *)

type reg_kind = Int_reg of int  (** width in bytes *) | Float_reg of int

(** [register ~spaces under] makes byte order irrelevant for register
    accesses: a fetch or store smaller than the register is widened to a
    full-register operation on the underlying memory, and the requested
    bytes are carved out of the canonical little-endian value — so the
    least significant byte of a register is the same abstract operation on
    a big-endian SIM-MIPS and a little-endian SIM-VAX.

    Float registers additionally convert between the stored width and the
    requested width (4, 8, or 10 bytes), covering the SIM-68020's 80-bit
    extended registers. *)
let register ~(spaces : (char * reg_kind) list) (under : t) : t =
  let kind space = List.assoc_opt space spaces in
  let float_of_bytes s =
    match String.length s with
    | 4 -> Int32.float_of_bits (Endian.get_u32 Little (Bytes.of_string s) 0)
    | 8 -> Int64.float_of_bits (Endian.get_u64 Little (Bytes.of_string s) 0)
    | 10 -> Ldb_machine.Float80.of_bytes s
    | n -> fail "register: bad float width %d" n
  in
  let bytes_of_float v n =
    match n with
    | 4 ->
        let b = Bytes.create 4 in
        Endian.set_u32 Little b 0 (Int32.bits_of_float v);
        Bytes.to_string b
    | 8 ->
        let b = Bytes.create 8 in
        Endian.set_u64 Little b 0 (Int64.bits_of_float v);
        Bytes.to_string b
    | 10 -> Ldb_machine.Float80.to_bytes v
    | n -> fail "register: bad float width %d" n
  in
  {
    name = "register";
    fetch_abs =
      (fun ~space ~offset ~size ->
        match kind space with
        | None -> under.fetch_abs ~space ~offset ~size
        | Some (Int_reg w) ->
            if size = w then under.fetch_abs ~space ~offset ~size
            else if size < w then
              (* full-word fetch, then the least significant bytes *)
              String.sub (under.fetch_abs ~space ~offset ~size:w) 0 size
            else fail "register: %d-byte fetch from %d-byte register" size w
        | Some (Float_reg w) ->
            if size = w then under.fetch_abs ~space ~offset ~size
            else
              let v = float_of_bytes (under.fetch_abs ~space ~offset ~size:w) in
              bytes_of_float v size);
    store_abs =
      (fun ~space ~offset ~bytes_ ->
        let size = String.length bytes_ in
        match kind space with
        | None -> under.store_abs ~space ~offset ~bytes_
        | Some (Int_reg w) ->
            if size = w then under.store_abs ~space ~offset ~bytes_
            else if size < w then begin
              let whole = Bytes.of_string (under.fetch_abs ~space ~offset ~size:w) in
              Bytes.blit_string bytes_ 0 whole 0 size;
              under.store_abs ~space ~offset ~bytes_:(Bytes.to_string whole)
            end
            else fail "register: %d-byte store into %d-byte register" size w
        | Some (Float_reg w) ->
            if size = w then under.store_abs ~space ~offset ~bytes_
            else
              let v = float_of_bytes bytes_ in
              under.store_abs ~space ~offset ~bytes_:(bytes_of_float v w));
  }

(* --- joined memory ------------------------------------------------------ *)

(** [joined ~routes ~default] routes each request to the memory serving its
    space.  This is the instance presented to the rest of the debugger as
    {e the} abstract memory for a stack frame. *)
let joined ~(routes : (char * t) list) ~(default : t) : t =
  let pick space = match List.assoc_opt space routes with Some m -> m | None -> default in
  {
    name = "joined";
    fetch_abs = (fun ~space ~offset ~size -> (pick space).fetch_abs ~space ~offset ~size);
    store_abs = (fun ~space ~offset ~bytes_ -> (pick space).store_abs ~space ~offset ~bytes_);
  }

(* --- local memory (testing and the expression server) ------------------- *)

(** An abstract memory backed by a plain byte array: every space maps onto
    one flat store.  Used by unit tests and for interpreting code out of
    line. *)
let local ?(size = 0x10000) () : t =
  let store_ = Bytes.make size '\000' in
  {
    name = "local";
    fetch_abs =
      (fun ~space:_ ~offset ~size ->
        if offset < 0 || offset + size > Bytes.length store_ then fail "local: fault %#x" offset
        else Bytes.sub_string store_ offset size);
    store_abs =
      (fun ~space:_ ~offset ~bytes_ ->
        if offset < 0 || offset + String.length bytes_ > Bytes.length store_ then
          fail "local: fault %#x" offset
        else Bytes.blit_string bytes_ 0 store_ offset (String.length bytes_));
  }

(** A tracing wrapper used by tests to observe request routing through the
    DAG. *)
let traced ~(log : string -> unit) (inner : t) : t =
  {
    name = "traced:" ^ inner.name;
    fetch_abs =
      (fun ~space ~offset ~size ->
        log (Fmt.str "fetch %s %c:%#x/%d" inner.name space offset size);
        inner.fetch_abs ~space ~offset ~size);
    store_abs =
      (fun ~space ~offset ~bytes_ ->
        log (Fmt.str "store %s %c:%#x/%d" inner.name space offset (String.length bytes_));
        inner.store_abs ~space ~offset ~bytes_);
  }
