(** The debugger's one command language: a total parser from a line to a
    command, and the printer it inverts.  The REPL, the [-connect] wire
    client and the server's log all speak it.

    {v
    Server commands, run by Server.exec in process or over the wire:
      break FUNC | break [FILE]:LINE   plant a breakpoint (b)
      break SPEC if EXPR               plant, then condition every planted
                                       address on EXPR, compiled to verified
                                       bytecode and shipped to the nub
      condition ADDR if EXPR           condition the breakpoint at ADDR
      continue (c, run) | step (s)     resume / source-level step
      where | backtrace (bt)           the current stop / the stack
      print NAME (p) | read NAME       a variable, printed / as an integer
      core                             fetch a core dump of the stopped target
      detach | kill                    release the target
    REPL commands, which need state only the REPL holds:
      stepi (si)                       instruction-level step
      eval EXPR (e)                    evaluate a C expression
      set NAME = INT                   assign to a scalar variable
      regs | arch                      registers / target architecture
      disas [ADDR]                     disassemble at ADDR (default: pc)
      info breaks (info) | clear       list / remove breakpoints
      core FILE | report               write a core dump / crash report
      record [N]                       record for time travel, checkpointing
                                       every N instructions (default 64)
      rstep (rsi) | rcontinue (rc)     one instruction / one stop backwards
      rwatch NAME                      back to the last write of NAME
      present                          return from history to the present
      quit (q, bye)                    end the session
    v}

    Words are separated by blanks; an expression is the rest of the line.
    A line, address or integer must fit the wire's 32 bits and a name or
    expression its text limit: the parser refuses anything else with a
    typed {!error}, so no front end can send a number the wire would
    wrap. *)

(** The commands a server session executes, re-exported as
    [Server.command]. *)
type server =
  | Break_function of string
  | Break_line of { file : string option; line : int }
  | Condition of { addr : int; cond : string }
  | Continue
  | Step_source
  | Where
  | Backtrace
  | Print of string
  | Read_int of string
  | Fetch_core
  | Detach
  | Kill

type t =
  | Server of server
  | Break_if of { at : server; cond : string }  (** [at] plants: a [Break_*] *)
  | Stepi
  | Eval of string
  | Set of { name : string; value : int }
  | Regs
  | Disas of int option
  | Arch
  | Info_breaks
  | Clear
  | Write_core of string
  | Report
  | Record of int  (** checkpoint spacing *)
  | Rstep
  | Rcontinue
  | Rwatch of string
  | Present
  | Quit

type error =
  | Blank  (** nothing but blanks: no command, and nothing to complain about *)
  | Unknown of string
  | Usage of string
  | Bad_number of { what : string; text : string }
  | Out_of_range of { what : string; value : int; lo : int; hi : int }
  | Too_long of { what : string; length : int }
  | Not_on_wire of string  (** a REPL command typed at a wire client *)

(** The longest name or expression the wire carries. *)
let max_text = 1 lsl 16

let error_to_string = function
  | Blank -> "empty command"
  | Unknown w -> "unknown command: " ^ w
  | Usage u -> "usage: " ^ u
  | Bad_number { what; text } -> Printf.sprintf "bad %s: %s" what text
  | Out_of_range { what; value; lo; hi } ->
      Printf.sprintf "%s %d is outside %d..%d" what value lo hi
  | Too_long { what; length } ->
      Printf.sprintf "%s is %d bytes, over the %d-byte limit" what length max_text
  | Not_on_wire c -> c ^ " is not available over the wire"

(** The commands written without arguments, with their spellings; the
    first spelling is the one {!to_string} prints. *)
let bare =
  [
    ([ "continue"; "c"; "run" ], Server Continue);
    ([ "step"; "s" ], Server Step_source);
    ([ "where" ], Server Where);
    ([ "backtrace"; "bt" ], Server Backtrace);
    ([ "core" ], Server Fetch_core);
    ([ "detach" ], Server Detach);
    ([ "kill" ], Server Kill);
    ([ "stepi"; "si" ], Stepi);
    ([ "regs" ], Regs);
    ([ "disas" ], Disas None);
    ([ "arch" ], Arch);
    ([ "info breaks"; "info" ], Info_breaks);
    ([ "clear" ], Clear);
    ([ "report" ], Report);
    ([ "record" ], Record 64);
    ([ "rstep"; "rsi" ], Rstep);
    ([ "rcontinue"; "rc" ], Rcontinue);
    ([ "present" ], Present);
    ([ "quit"; "q"; "bye" ], Quit);
  ]

(** The usage of every command that takes arguments. *)
let usages =
  [
    ([ "break"; "b" ], "break FUNC | break [FILE]:LINE [if EXPR]");
    ([ "condition" ], "condition ADDR if EXPR");
    ([ "print"; "p" ], "print NAME");
    ([ "read" ], "read NAME");
    ([ "core" ], "core [FILE]");
    ([ "eval"; "e" ], "eval EXPR");
    ([ "set" ], "set NAME = INT");
    ([ "disas" ], "disas [ADDR]");
    ([ "record" ], "record [N]");
    ([ "rwatch" ], "rwatch NAME");
  ]

let rec to_string (c : t) : string =
  match c with
  | Server (Break_function f) -> "break " ^ f
  | Server (Break_line { file; line }) ->
      Printf.sprintf "break %s:%d" (Option.value ~default:"" file) line
  | Server (Condition { addr; cond }) -> Printf.sprintf "condition %#x if %s" addr cond
  | Server (Print v) -> "print " ^ v
  | Server (Read_int v) -> "read " ^ v
  | Break_if { at; cond } -> Printf.sprintf "%s if %s" (to_string (Server at)) cond
  | Eval e -> "eval " ^ e
  | Set { name; value } -> Printf.sprintf "set %s = %d" name value
  | Disas (Some a) -> Printf.sprintf "disas %#x" a
  | Write_core f -> "core " ^ f
  | Record n when n <> 64 -> Printf.sprintf "record %d" n
  | Rwatch v -> "rwatch " ^ v
  | c -> List.hd (fst (List.find (fun (_, c') -> c' = c) bare))

let server_to_string (c : server) : string = to_string (Server c)

(* --- parsing ---------------------------------------------------------------- *)

exception Refuse of error

let refuse e = raise (Refuse e)

let text what s =
  if String.length s > max_text then refuse (Too_long { what; length = String.length s });
  s

let number what ~lo ~hi s =
  match int_of_string_opt s with
  | None -> refuse (Bad_number { what; text = s })
  | Some n when n < lo || n > hi -> refuse (Out_of_range { what; value = n; lo; hi })
  | Some n -> n

let u32 what s = number what ~lo:0 ~hi:0xffffffff s

(** [FUNC] or [[FILE]:LINE]. *)
let spec s =
  match String.rindex_opt s ':' with
  | None -> Break_function (text "function name" s)
  | Some i ->
      let file = String.sub s 0 i in
      let line = u32 "line" (String.sub s (i + 1) (String.length s - i - 1)) in
      Break_line { file = (if file = "" then None else Some (text "file name" file)); line }

let expr words = text "expression" (String.concat " " words)

let parse_words words =
  let has verb (spellings, _) = List.mem verb spellings in
  match (words, List.find_opt (has (String.concat " " words)) bare) with
  | [], _ -> refuse Blank
  | _, Some (_, c) -> c
  | verb :: args, None -> (
      match (verb, args) with
      | ("break" | "b"), [ s ] -> Server (spec s)
      | ("break" | "b"), s :: "if" :: (_ :: _ as e) -> Break_if { at = spec s; cond = expr e }
      | "condition", a :: "if" :: (_ :: _ as e) ->
          Server (Condition { addr = u32 "address" a; cond = expr e })
      | ("print" | "p"), [ v ] -> Server (Print (text "name" v))
      | "read", [ v ] -> Server (Read_int (text "name" v))
      | "core", [ f ] -> Write_core f
      | ("eval" | "e"), _ :: _ -> Eval (expr args)
      | "set", [ v; "="; n ] ->
          Set { name = text "name" v; value = number "value" ~lo:(-0x80000000) ~hi:0xffffffff n }
      | "disas", [ a ] -> Disas (Some (u32 "address" a))
      | "record", [ n ] -> Record (number "checkpoint spacing" ~lo:1 ~hi:0xffffffff n)
      | "rwatch", [ v ] -> Rwatch (text "name" v)
      | _ -> (
          match (List.find_opt (has verb) usages, List.find_opt (has verb) bare) with
          | Some (_, u), _ -> refuse (Usage u)
          | None, Some (spelling :: _, _) -> refuse (Usage spelling)
          | None, _ -> refuse (Unknown verb)))

(** Parse one line.  Total: every string is a command or a typed error. *)
let parse (line : string) : (t, error) result =
  let blank = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false in
  let words =
    String.split_on_char ' ' (String.map (fun c -> if blank c then ' ' else c) line)
    |> List.filter (fun w -> w <> "")
  in
  match parse_words words with c -> Ok c | exception Refuse e -> Error e
