(** The linker: lays out object files into an executable image, resolves
    relocations, and collects everything the debugger's loader interface
    needs (symbols for nm, anchor addresses, the SIM-MIPS runtime
    procedure table, the PostScript symbol tables).

    The system startup code "calls the nub instead of main": in image
    terms the entry stub calls [_main] and then traps into the kernel's
    exit; the nub gains control first because the loader starts the
    process paused under it. *)

open Ldb_machine
open Ldb_cc

exception Error of string

type image = {
  i_arch : Arch.t;
  i_code : string;
  i_data : string;
  i_entry : int;
  i_main : int;
  i_symbols : (string * int * char) list;
      (** (name, address, kind): 'T'/'D' global text/data, 't'/'d' local *)
  i_ps : Asm.ps_pieces list;
  i_stabs : string;
  i_rpt : Rpt.entry list;
  mutable i_pages : (image * Ram.t) option;
      (** what every {!load} starts from, and the image it was laid out
          for; see {!pages}.  A loaded image is therefore cyclic:
          compare images with [==], never [=]. *)
}

let start_symbol = "__start"

(** The per-target startup stub: call main, then exit(main's result). *)
let startup_stub (target : Target.t) : Asm.text_item list =
  let scratch = target.Target.scratch in
  [
    Asm.Label start_symbol;
    Asm.InsR (Insn.Call 0l, "_main", 0);
    Asm.Ins (Insn.Li (scratch, Int32.of_int Ram.Layout.sysarg_base));
    Asm.Ins (Insn.Store (Insn.S32, target.Target.ret_reg, scratch, 0l));
    Asm.Ins (Insn.Syscall Proc.Sys_abi.exit);
  ]

let internal_label name =
  let prefixes = [ "L$"; "Lf$"; "Lu$"; "Lret$"; "__stop$" ] in
  List.exists
    (fun p -> String.length name >= String.length p && String.sub name 0 (String.length p) = p)
    prefixes

(** Link a set of objects (all for the same architecture). *)
let link (objs : Asm.t list) : image =
  let arch =
    match objs with
    | [] -> raise (Error "no objects")
    | o :: rest ->
        List.iter
          (fun o' ->
            if not (Arch.equal o'.Asm.o_arch o.Asm.o_arch) then
              raise (Error "mixed architectures"))
          rest;
        o.Asm.o_arch
  in
  let target = Target.of_arch arch in
  let globals = List.concat_map (fun o -> o.Asm.o_globals) objs in
  let all_text = startup_stub target :: List.map (fun o -> o.Asm.o_text) objs in
  let all_data = List.map (fun o -> o.Asm.o_data) objs in

  (* pass 1: lay out text and data, assigning label addresses *)
  let addrs : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let define_label name addr kind_list =
    if Hashtbl.mem addrs name then raise (Error ("duplicate symbol " ^ name));
    Hashtbl.replace addrs name addr;
    kind_list := (name, addr) :: !kind_list
  in
  let text_syms = ref [] and data_syms = ref [] in
  let code_end = ref Ram.Layout.code_base in
  List.iter
    (List.iter (function
      | Asm.Label l -> define_label l !code_end text_syms
      | Asm.Ins i | Asm.InsR (i, _, _) -> code_end := !code_end + Target.insn_length target i))
    all_text;
  let data_end = ref Ram.Layout.data_base in
  List.iter
    (List.iter (function
      | Asm.Dlabel l -> define_label l !data_end data_syms
      | Asm.Dword _ | Asm.Dwordsym _ -> data_end := !data_end + 4
      | Asm.Dbytes s -> data_end := !data_end + String.length s
      | Asm.Dspace n -> data_end := !data_end + n
      | Asm.Dalign a -> data_end := (!data_end + a - 1) / a * a))
    all_data;

  let resolve sym =
    match Hashtbl.find_opt addrs sym with
    | Some a -> a
    | None -> raise (Error ("undefined symbol " ^ sym))
  in

  (* pass 2: encode *)
  let code = Buffer.create (!code_end - Ram.Layout.code_base) in
  List.iter
    (List.iter (function
      | Asm.Label _ -> ()
      | Asm.Ins i -> Buffer.add_string code (Target.encode target i)
      | Asm.InsR (i, sym, add) ->
          let v = Int32.of_int (resolve sym + add) in
          Buffer.add_string code (Target.encode target (Asm.set_imm i v))))
    all_text;
  let data = Buffer.create (max 1 (!data_end - Ram.Layout.data_base)) in
  let dpos = ref Ram.Layout.data_base in
  let emit_word (v : int32) =
    let b = Bytes.create 4 in
    Ldb_util.Endian.set_u32 (Arch.endian arch) b 0 v;
    Buffer.add_bytes data b;
    dpos := !dpos + 4
  in
  List.iter
    (List.iter (function
      | Asm.Dlabel _ -> ()
      | Asm.Dword v -> emit_word v
      | Asm.Dwordsym (sym, add) -> emit_word (Int32.of_int (resolve sym + add))
      | Asm.Dbytes s ->
          Buffer.add_string data s;
          dpos := !dpos + String.length s
      | Asm.Dspace n ->
          Buffer.add_string data (String.make n '\000');
          dpos := !dpos + n
      | Asm.Dalign a ->
          let pad = ((!dpos + a - 1) / a * a) - !dpos in
          Buffer.add_string data (String.make pad '\000');
          dpos := !dpos + pad))
    all_data;

  (* symbol list for nm *)
  let symbols =
    List.filter_map
      (fun (name, addr) ->
        if internal_label name then None
        else Some (name, addr, if List.mem name globals || name = start_symbol then 'T' else 't'))
      !text_syms
    @ List.filter_map
        (fun (name, addr) ->
          if internal_label name then None
          else Some (name, addr, if List.mem name globals then 'D' else 'd'))
        !data_syms
  in
  let symbols = List.sort (fun (_, a, _) (_, b, _) -> compare a b) symbols in

  let rpt =
    List.concat_map
      (fun o ->
        List.map
          (fun (label, fsize, raoff) ->
            { Rpt.addr = resolve label; frame_size = fsize; ra_offset = raoff })
          o.Asm.o_rpt)
      objs
  in
  {
    i_arch = arch;
    i_code = Buffer.contents code;
    i_data = Buffer.contents data;
    i_entry = resolve start_symbol;
    i_main = (match Hashtbl.find_opt addrs "_main" with Some a -> a | None -> 0);
    i_symbols = symbols;
    i_ps = List.filter_map (fun o -> o.Asm.o_ps) objs;
    i_stabs = String.concat "" (List.map (fun o -> o.Asm.o_stabs) objs);
    i_rpt = rpt;
    i_pages = None;
  }

(** The memory every process of [img] starts from: its code, its data and
    (on SIM-MIPS) its runtime procedure table, laid out by the first load
    and kept in the image.  An edited copy ([{ img with i_code = ... }])
    is a new record that carries the original's pages along, so they are
    laid out again for any image but the one they were built for. *)
let pages (img : image) : Ram.t =
  match img.i_pages with
  | Some (src, ram) when src == img -> ram
  | _ ->
      let ram = Ram.create (Target.order (Target.of_arch img.i_arch)) in
      Ram.blit_in ram ~addr:Ram.Layout.code_base img.i_code;
      Ram.blit_in ram ~addr:Ram.Layout.data_base img.i_data;
      if Arch.equal img.i_arch Mips then Rpt.write ram img.i_rpt;
      img.i_pages <- Some (img, ram);
      ram

(** Load an image into a fresh simulated process, which shares the image's
    pages until it writes them (see {!Ram.clone}). *)
let load (img : image) : Proc.t =
  let target = Target.of_arch img.i_arch in
  let p = Proc.create ~ram:(Ram.clone (pages img)) target in
  p.Proc.entry <- img.i_entry;
  Proc.set_pc p img.i_entry;
  p
