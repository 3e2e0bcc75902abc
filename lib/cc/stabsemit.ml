(** dbx-style "stabs": the machine-dependent binary symbol-table format
    that production compilers emit (Sec. 2, Sec. 7).

    This emitter exists for the baselines: the stabs debugger
    (lib/stabsdbg) consumes it, and the T5 experiment compares its size
    against the PostScript symbol tables (the paper reports PostScript ~9x
    larger, ~2x after compression).

    Format (little-endian, deliberately compact like a.out stabs):
    each record is
      type:u8  desc:u16  value:u32  nstr:u16  bytes[nstr]
    with the classic stab types. *)

open Ldb_util
open Ldb_machine

let n_so = 0x64  (* source file *)
let n_fun = 0x24 (* function *)
let n_gsym = 0x20 (* global *)
let n_stsym = 0x26 (* static *)
let n_lsym = 0x80 (* stack local *)
let n_psym = 0xa0 (* parameter *)
let n_rsym = 0x40 (* register variable *)
let n_sline = 0x44 (* line number / stopping point *)
let n_valid = 0x90 (* per-variable validity ranges over stop indexes *)

(** The desc field is a u16, so a source line past 65535 cannot be
    represented — a real limitation of the stabs format that the PostScript
    tables do not share.  Instead of silently emitting [line mod 65536]
    (which would send the debugger to a wildly wrong line), clamp to the
    maximum and record a diagnostic; dbgcheck's differential pass reports
    the clamp when the two views of the module disagree. *)
let clamp_diagnostics : string list ref = ref []

let max_desc = 0xffff

let clamp_desc ~what desc =
  if desc >= 0 && desc <= max_desc then desc
  else begin
    clamp_diagnostics :=
      Printf.sprintf "%s: line %d does not fit the u16 stabs desc field; clamped to %d" what
        desc max_desc
      :: !clamp_diagnostics;
    if desc < 0 then 0 else max_desc
  end

let add_record buf ~ty ~desc ~value ~str =
  Bytecodec.add_u8 buf ty;
  Bytecodec.add_u16 buf desc;
  Bytecodec.add_u32 buf value;
  Bytecodec.add_u16 buf (String.length str);
  Buffer.add_string buf str

(* dbx-style type codes packed into the name string: "name:code" *)
let rec type_code (arch : Arch.t) (t : Ctype.t) : string =
  match t with
  | Ctype.Void -> "v"
  | Ctype.Char -> "c"
  | Ctype.Short -> "s"
  | Ctype.Int -> "i"
  | Ctype.Unsigned -> "u"
  | Ctype.Float -> "f"
  | Ctype.Double -> "d"
  | Ctype.LongDouble -> if Arch.equal arch M68k then "x" else "d"
  | Ctype.Ptr t -> "*" ^ type_code arch t
  | Ctype.Array (t, n) -> Printf.sprintf "a%d,%s" n (type_code arch t)
  | Ctype.Struct sd -> "S" ^ sd.Ctype.sname
  | Ctype.Func (r, _) -> "F" ^ type_code arch r

let sym_value (s : Sym.t) =
  match s.Sym.where with
  | Some (Sym.In_reg r) -> r
  | Some (Sym.Frame off) -> off
  | Some (Sym.Anchored idx) -> idx
  | Some (Sym.Global _) | None -> 0

let sym_stab_type (s : Sym.t) =
  match (s.Sym.kind, s.Sym.where) with
  | Sym.Kfunc, _ -> n_fun
  | _, Some (Sym.In_reg _) -> n_rsym
  | Sym.Kparam, _ -> n_psym
  | _, Some (Sym.Anchored _) -> n_stsym
  | _, Some (Sym.Global _) -> n_gsym
  | _, _ -> n_lsym

let emit_sym buf arch (s : Sym.t) =
  add_record buf ~ty:(sym_stab_type s)
    ~desc:(clamp_desc ~what:s.Sym.sym_name s.Sym.spos.Lex.line)
    ~value:(sym_value s)
    ~str:(s.Sym.sym_name ^ ":" ^ type_code arch s.Sym.sym_ty)

(** Serialize a unit's debug information as binary stabs. *)
let emit_unit (ud : Sym.unit_debug) : string =
  let buf = Buffer.create 1024 in
  let arch = ud.Sym.ud_arch in
  add_record buf ~ty:n_so ~desc:0 ~value:0 ~str:ud.Sym.ud_name;
  List.iter (emit_sym buf arch) ud.Sym.ud_statics;
  List.iter (emit_sym buf arch) ud.Sym.ud_globals;
  List.iter
    (fun (fd : Sym.func_debug) ->
      emit_sym buf arch fd.Sym.fd_sym;
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (sp : Sym.stop_point) ->
          (* locals visible at each stopping point, once each *)
          let rec chain = function
            | None -> ()
            | Some (s : Sym.t) ->
                if not (Hashtbl.mem seen s.Sym.sid) then begin
                  Hashtbl.replace seen s.Sym.sid ();
                  emit_sym buf arch s;
                  chain s.Sym.uplink
                end
          in
          chain sp.Sym.sp_scope;
          add_record buf ~ty:n_sline
            ~desc:(clamp_desc ~what:fd.Sym.fd_label sp.Sym.sp_pos.Lex.line)
            ~value:sp.Sym.sp_anchor ~str:"")
        fd.Sym.fd_stops;
      (* compiler-proven validity ranges, one n_valid record per tracked
         local: str = "name:lo-hi=f,...", f in {u,v,d}; value carries the
         variable's frame offset or register so same-named locals stay
         distinguishable; desc is the range count *)
      List.iter
        (fun (s : Sym.t) ->
          if s.Sym.validity <> [] then
            add_record buf ~ty:n_valid
              ~desc:(List.length s.Sym.validity)
              ~value:(sym_value s)
              ~str:
                (s.Sym.sym_name ^ ":"
                ^ String.concat ","
                    (List.map
                       (fun (lo, hi, f) ->
                         Printf.sprintf "%d-%d=%c" lo hi
                           (match f with 0 -> 'u' | 1 -> 'v' | 2 -> 'd' | _ -> '?'))
                       s.Sym.validity)))
        fd.Sym.fd_locals)
    ud.Sym.ud_funcs;
  Buffer.contents buf
