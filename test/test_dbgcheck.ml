(** Tests for dbgcheck (the whole-artifact debug-info verifier) and the IR
    dataflow lint:

    - clean builds of the example programs produce zero findings on all
      four targets;
    - a seeded-defect corpus (mirroring test/test_pslint.ml's): every
      mutation of a clean artifact — planted nops overwritten, anchors
      re-pointed, frame sizes corrupted, stabs skewed — must be flagged;
    - the JSON finding format is pinned (a contract for tooling);
    - Stabsemit's u16 line clamp, at the boundary and end-to-end;
    - the IR lint: uninitialized reads, dead stores, unreachable
      stopping points, with correct source positions. *)

open Ldb_machine
module Link = Ldb_link.Link
module Nm = Ldb_link.Nm
module Driver = Ldb_link.Driver
module Sd = Ldb_stabsdbg.Stabsdbg
module F = Ldb_dbgcheck.Finding
module D = Ldb_dbgcheck.Dbgcheck
module Irlint = Ldb_cc.Irlint
module P = Ldb_util.Posfinding

let check = Alcotest.check

let structs_c =
  {|
struct point { int x; int y; };
struct rect { struct point lo; struct point hi; char tag; };
static struct rect r;
double scale(double f, int k) { return f * k + 0.5; }
char *name(void) { return "rect"; }
int main(void)
{
    struct point p;
    double d;
    p.x = 3; p.y = 4;
    r.lo = p;
    r.hi.x = 7; r.hi.y = 8;
    r.tag = 'r';
    d = scale(1.5, 2);
    printf("%d %d\n", r.hi.x - r.lo.x, r.hi.y - r.lo.y);
    return (int) d;
}
|}

let register_c =
  {|
int sum(int n)
{
    register int s;
    int i;
    s = 0;
    for (i = 1; i <= n; i++) s = s + i;
    return s;
}
int main(void) { return sum(3); }
|}

let build ~arch sources = Driver.build ~arch sources

let has kind fs = List.exists (fun (f : F.t) -> f.F.kind = kind) fs

let pp_findings fs = String.concat "\n" (List.map F.to_string fs)

let expect_flagged name kind fs =
  if not (has kind fs) then
    Alcotest.failf "%s: expected a %s finding, got:\n%s" name (F.kind_name kind)
      (pp_findings fs)

(* --- clean builds ------------------------------------------------------------- *)

let test_clean_examples () =
  List.iter
    (fun arch ->
      List.iter
        (fun sources ->
          let img, ps = build ~arch sources in
          let fs = D.check img ps in
          check Alcotest.string
            (Printf.sprintf "%s %s clean" (Arch.name arch) (fst (List.hd sources)))
            "" (pp_findings fs))
        [
          [ ("fib.c", Testkit.fib_c) ];
          [ ("structs.c", structs_c) ];
          [ ("register.c", register_c) ];
        ])
    Arch.all

(* --- mutation helpers ---------------------------------------------------------- *)

let patch_bytes = Testkit.patch_bytes

(** Replace the first occurrence of [pat] after [from] with [repl]. *)
let replace_first = Testkit.replace_first

let index_of = Testkit.index_of

(** The first stopping point of the first function: its code address and
    the data-segment offset of the anchor slot word that holds it. *)
let first_stop img =
  let uv = List.hd (Sd.units (Sd.parse img.Link.i_stabs)) in
  let anchor = Ldb_cc.Sym.anchor_name uv.Sd.uv_name in
  let nm = Nm.run img in
  let aaddr =
    match List.find_opt (fun (e : Nm.entry) -> e.Nm.name = anchor) nm with
    | Some e -> e.Nm.addr
    | None -> Alcotest.failf "anchor %s not in nm" anchor
  in
  let fv = List.hd uv.Sd.uv_funcs in
  let sline = List.hd fv.Sd.fv_slines in
  let slot_off = aaddr + (4 * sline.Sd.st_value) - Ram.Layout.data_base in
  let stop =
    Int32.to_int
      (Ldb_util.Endian.get_u32 (Arch.endian img.Link.i_arch)
         (Bytes.of_string img.Link.i_data) slot_off)
  in
  (stop, slot_off)

(** Offset of the first n_sline record in a raw stabs string. *)
let first_sline_off stabs =
  let u16 i = Char.code stabs.[i] lor (Char.code stabs.[i + 1] lsl 8) in
  let rec scan pos =
    if pos >= String.length stabs then Alcotest.fail "no n_sline record"
    else if Char.code stabs.[pos] = Ldb_cc.Stabsemit.n_sline then pos
    else scan (pos + 9 + u16 (pos + 7))
  in
  scan 0

let invalid_encoding = Testkit.invalid_encoding

(* --- the seeded-defect corpus -------------------------------------------------- *)

(* stops family: all on SIM-SPARC (fixed 4-byte instructions, no RPT) *)

let sparc_fib () = build ~arch:Arch.Sparc [ ("fib.c", Testkit.fib_c) ]

let test_mut_bad_nop () =
  let img, ps = sparc_fib () in
  let stop, _ = first_stop img in
  let t = Target.of_arch Arch.Sparc in
  let other = Target.encode t (Insn.Mov (1, 2)) in
  let img =
    { img with Link.i_code = patch_bytes img.Link.i_code (stop - Ram.Layout.code_base) other }
  in
  expect_flagged "overwritten nop" F.Bad_nop (D.check img ps)

let test_mut_misaligned_stop () =
  let img, ps = sparc_fib () in
  let stop, slot_off = first_stop img in
  let b = Bytes.of_string img.Link.i_data in
  Ldb_util.Endian.set_u32 (Arch.endian Arch.Sparc) b slot_off (Int32.of_int (stop + 1));
  let img = { img with Link.i_data = Bytes.to_string b } in
  expect_flagged "slot re-pointed off-boundary" F.Misaligned_stop (D.check img ps)

let test_mut_nop_advance () =
  let img, ps = sparc_fib () in
  let t = Target.of_arch Arch.Sparc in
  let fs = D.check ~tdesc:{ t with Target.nop_advance = 8 } img ps in
  expect_flagged "skewed nop_advance" F.Nop_advance fs

let test_mut_bad_decode () =
  let img, ps = sparc_fib () in
  let stop, _ = first_stop img in
  let t = Target.of_arch Arch.Sparc in
  let img =
    { img with
      Link.i_code =
        patch_bytes img.Link.i_code (stop - Ram.Layout.code_base) (invalid_encoding t) }
  in
  expect_flagged "undecodable code bytes" F.Bad_decode (D.check img ps)

(* symbols family *)

let test_mut_unresolved_anchor () =
  let img, ps = sparc_fib () in
  (* rename the anchor the symbol table claims, so it resolves nowhere *)
  let i = index_of ps "/anchors [ /_stanchor__V" in
  let ps' = patch_bytes ps (i + String.length "/anchors [ /_stanchor__V") "zzzzzz" in
  expect_flagged "renamed symtab anchor" F.Unresolved_sym (D.check img ps')

let test_mut_anchor_bad_segment () =
  let img, ps = sparc_fib () in
  (* re-point the anchor map entry into the code segment *)
  let i = index_of ps "/anchormap <<" in
  let j = i + index_of (String.sub ps i (String.length ps - i)) "16#" in
  let ps' = patch_bytes ps (j + 3) "00001000" in
  expect_flagged "anchor re-pointed into code" F.Bad_segment (D.check img ps')

let test_mut_alias_clash () =
  let img, ps = sparc_fib () in
  (* give a data symbol a text symbol's address *)
  let anchor_name =
    Ldb_cc.Sym.anchor_name "fib.c"
  in
  let symbols =
    List.map
      (fun (name, addr, kind) ->
        if name = anchor_name then (name, Ram.Layout.code_base, kind) else (name, addr, kind))
      img.Link.i_symbols
  in
  expect_flagged "data symbol aliasing text" F.Alias_clash
    (D.check { img with Link.i_symbols = symbols } ps)

let test_mut_dangling_slot () =
  let img, ps = sparc_fib () in
  (* skew one stabs stopping point to a slot index far outside the anchor *)
  let off = first_sline_off img.Link.i_stabs in
  let img =
    { img with Link.i_stabs = patch_bytes img.Link.i_stabs (off + 3) "\xf0\x00\x00\x00" }
  in
  expect_flagged "stabs slot index out of range" F.Dangling_slot (D.check img ps)

(** A table whose [/uplink] chain loops: fib.c's entry for [n] gets
    [i]'s as its uplink, so [i -> a -> n -> i ...].  The debugger
    survives such a table (test_symtab_lazy); dbgcheck must flag it,
    once for the one procedure whose scopes loop. *)
let test_mut_scope_loop () =
  List.iter
    (fun arch ->
      let img, ps = build ~arch [ ("fib.c", Testkit.fib_c) ] in
      let ps = replace_first ps "/S4$fib_c <<" "S1$fib_c /uplink S3$fib_c put /S4$fib_c <<" in
      match D.check img ps with
      | [ { F.kind = F.Scope_loop; _ } ] -> ()
      | fs ->
          Alcotest.failf "%s: expected exactly one scope-loop finding, got:\n%s"
            (Arch.name arch) (pp_findings fs))
    Arch.all

(* frames family *)

let test_mut_frame_size () =
  let img, ps = build ~arch:Arch.Mips [ ("fib.c", Testkit.fib_c) ] in
  (* corrupt /framesize inside the deferred unit body *)
  let i = index_of ps "/framesize " in
  let j = i + String.length "/framesize " in
  let rec digits k = if k < String.length ps && ps.[k] >= '0' && ps.[k] <= '9' then digits (k + 1) else k in
  let k = digits j in
  let ps' = String.sub ps 0 j ^ "7" ^ String.sub ps k (String.length ps - k) in
  let fs = D.check img ps' in
  expect_flagged "corrupted frame size" F.Frame_bounds fs;
  (* on SIM-MIPS the runtime procedure table is a second witness *)
  expect_flagged "corrupted frame size vs RPT" F.Rpt_mismatch fs

let test_mut_bad_reg_var () =
  let img, ps = build ~arch:Arch.Sparc [ ("register.c", register_c) ] in
  (* SIM-SPARC register variables are r20-r25; the first register variable
     gets r20.  Re-point its where procedure at r1. *)
  let ps' = replace_first ps "20 Regset0" "1 Regset0" in
  expect_flagged "register variable outside reg_vars" F.Bad_reg_var (D.check img ps')

let test_mut_rpt_missing () =
  let img, ps = build ~arch:Arch.Mips [ ("fib.c", Testkit.fib_c) ] in
  let nm = Nm.run img in
  let fib_addr =
    (List.find (fun (e : Nm.entry) -> e.Nm.name = "_fib") nm).Nm.addr
  in
  let img =
    { img with Link.i_rpt = List.filter (fun (e : Rpt.entry) -> e.Rpt.addr <> fib_addr) img.Link.i_rpt }
  in
  expect_flagged "dropped RPT entry" F.Rpt_mismatch (D.check img ps)

let test_mut_rpt_skew () =
  let img, ps = build ~arch:Arch.Mips [ ("fib.c", Testkit.fib_c) ] in
  let img =
    { img with
      Link.i_rpt =
        List.map (fun (e : Rpt.entry) -> { e with Rpt.frame_size = e.Rpt.frame_size + 8 })
          img.Link.i_rpt }
  in
  expect_flagged "skewed RPT frame size" F.Rpt_mismatch (D.check img ps)

(* differential family *)

let test_mut_stabs_line_skew () =
  let img, ps = sparc_fib () in
  let off = first_sline_off img.Link.i_stabs in
  let desc = Char.code img.Link.i_stabs.[off + 1] in
  let img =
    { img with
      Link.i_stabs =
        patch_bytes img.Link.i_stabs (off + 1) (String.make 1 (Char.chr ((desc + 1) land 0xff))) }
  in
  expect_flagged "skewed stabs line" F.Stabs_mismatch (D.check img ps)

let test_mut_stabs_name_skew () =
  let img, ps = sparc_fib () in
  (* rename a symbol in the stabs view only *)
  let i = index_of img.Link.i_stabs "fib:" in
  let img = { img with Link.i_stabs = patch_bytes img.Link.i_stabs i "fub:" } in
  expect_flagged "renamed stabs symbol" F.Stabs_mismatch (D.check img ps)

let test_mut_table_error () =
  let img, ps = sparc_fib () in
  expect_flagged "corrupt loader PostScript" F.Table_error
    (D.check img (ps ^ "\nthis_op_is_not_defined\n"))

(* hostile tables: dbgcheck reads a loader table through the debugger's
   own loader, so every way that read can fail must surface as exactly
   one table-error finding naming the failure, never as an exception *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(** Replace the deferred body of register.c's unit (the string that
    [/UNITBODY$register_c] defines) with [body]. *)
let with_unit_body ps body =
  let opening = "/UNITBODY$register_c (" in
  let i = index_of ps opening + String.length opening in
  let j = index_of ps ") def\n/__symtab <<" in
  String.sub ps 0 i ^ body ^ String.sub ps j (String.length ps - j)

(** Damaged register.c tables, each with what its table error must say. *)
let hostile_tables ~arch : (string * string * string) list =
  let build_reg ?compress () =
    snd (Driver.build ?compress ~arch [ ("register.c", register_c) ])
  in
  let ps = build_reg () in
  [
    (* the first 9-bit code names an entry no stream can start with *)
    ( "corrupt lzw body",
      with_unit_body (build_reg ~compress:true ()) "\xff\xff\xff\xff",
      "corrupt lzw body" );
    ( "unit without its result",
      replace_first ps "/UNITRESULT$register_c" "/UNITRESULX$register_c",
      "did not define its result" );
    ( "body failing pslint",
      replace_first ps "/UNITRESULT$register_c" "NoSuchOperatorXYZ /UNITRESULT$register_c",
      "pslint" );
    ("no /__loader", replace_first ps "/__loader <<" "/__loadxx <<", "/__loader");
    ( "short /savedregs entry",
      replace_first ps "/savedregs [ [ " "/savedregs [ [ 99 ] [ ",
      "not a [reg offset] pair" );
  ]

let test_hostile_tables () =
  List.iter
    (fun arch ->
      let img, _ = build ~arch [ ("register.c", register_c) ] in
      List.iter
        (fun (name, bad, why) ->
          let what = Arch.name arch ^ " " ^ name in
          match D.check img bad with
          | [ { F.kind = F.Table_error; msg; _ } ] ->
              if not (contains msg why) then
                Alcotest.failf "%s: table error %S does not say %S" what msg why
          | fs -> Alcotest.failf "%s: expected one table-error, got:\n%s" what (pp_findings fs)
          | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e))
        (hostile_tables ~arch))
    Arch.all

let test_malformed_validity () =
  List.iter
    (fun arch ->
      let img, ps = build ~arch [ ("fib.c", Testkit.fib_c) ] in
      (* one integer too many: no longer a whole number of triples *)
      let ps = replace_first ps "/validity [ " "/validity [ 7 " in
      let fs = D.check img ps in
      expect_flagged (Arch.name arch ^ " ragged /validity") F.Validity_range fs;
      if has F.Table_error fs then
        Alcotest.failf "%s: a ragged /validity is a finding, not a table error:\n%s"
          (Arch.name arch) (pp_findings fs))
    Arch.all

(* validity family: seeded mutations of the emitted ranges in each table;
   every mutant must be flagged *)

let fib_sources = [ ("fib.c", Testkit.fib_c) ]

(** Offset and total length of the first [n_valid] record in raw stabs. *)
let first_valid_record stabs =
  let u16 i = Char.code stabs.[i] lor (Char.code stabs.[i + 1] lsl 8) in
  let rec scan pos =
    if pos >= String.length stabs then Alcotest.fail "no n_valid record"
    else
      let len = 9 + u16 (pos + 7) in
      if Char.code stabs.[pos] = Ldb_cc.Stabsemit.n_valid then (pos, len)
      else scan (pos + len)
  in
  scan 0

(** Remove the first PostScript [/validity [ ... ]] clause at or after
    [from], returning [None] when there is none. *)
let drop_ps_validity ?(from = 0) ps =
  let n = String.length ps in
  let pat = "/validity" in
  let m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.sub ps i m = pat then Some i
    else find (i + 1)
  in
  match find from with
  | None -> None
  | Some i ->
      let j = String.index_from ps i ']' in
      Some (String.sub ps 0 i ^ String.sub ps (j + 1) (n - j - 1))

(** Remove every [n_valid] record from a raw stabs string. *)
let drop_all_stabs_valid stabs =
  let u16 i = Char.code stabs.[i] lor (Char.code stabs.[i + 1] lsl 8) in
  let buf = Buffer.create (String.length stabs) in
  let rec scan pos =
    if pos < String.length stabs then begin
      let len = 9 + u16 (pos + 7) in
      if Char.code stabs.[pos] <> Ldb_cc.Stabsemit.n_valid then
        Buffer.add_string buf (String.sub stabs pos len);
      scan (pos + len)
    end
  in
  scan 0;
  Buffer.contents buf

let test_mut_validity_ps_bad_fact () =
  let img, ps = sparc_fib () in
  (* splice a triple with fact code 9 into the first local's ranges *)
  let ps = replace_first ps "/validity [ " "/validity [ 9 9 9 " in
  expect_flagged "fact code 9" F.Validity_range (D.check img ps)

let test_mut_validity_ps_shifted () =
  let img, ps = sparc_fib () in
  (* the first range always opens at stop 0; shifting it leaves a gap *)
  let ps = replace_first ps "/validity [ 0 " "/validity [ 1 " in
  expect_flagged "shifted range cover" F.Validity_range (D.check img ps)

let test_mut_validity_ps_dropped () =
  let img, ps = sparc_fib () in
  let ps =
    match drop_ps_validity ps with
    | Some ps -> ps
    | None -> Alcotest.fail "no /validity clause to drop"
  in
  expect_flagged "PS ranges dropped" F.Validity_missing (D.check img ps)

let test_mut_validity_stabs_corrupt () =
  let img, ps = sparc_fib () in
  let stabs = img.Link.i_stabs in
  let pos, len = first_valid_record stabs in
  (* overwrite the first fact letter with one the decoder rejects *)
  let eq = String.index_from stabs (pos + 9) '=' in
  if eq >= pos + len then Alcotest.fail "n_valid record without a fact";
  let img = { img with Link.i_stabs = patch_bytes stabs (eq + 1) "x" } in
  expect_flagged "undecodable n_valid record" F.Validity_range (D.check img ps)

let test_mut_validity_stabs_swapped () =
  let img, ps = sparc_fib () in
  let stabs = img.Link.i_stabs in
  let pos, len = first_valid_record stabs in
  (* swap the first fact: the record still decodes but now disagrees with
     the PostScript table *)
  let eq = String.index_from stabs (pos + 9) '=' in
  if eq >= pos + len then Alcotest.fail "n_valid record without a fact";
  let swapped = if stabs.[eq + 1] = 'u' then "v" else "u" in
  let img = { img with Link.i_stabs = patch_bytes stabs (eq + 1) swapped } in
  expect_flagged "swapped stabs fact" F.Validity_stabs_mismatch (D.check img ps)

let test_mut_validity_stabs_dropped () =
  let img, ps = sparc_fib () in
  let pos, len = first_valid_record img.Link.i_stabs in
  let stabs = img.Link.i_stabs in
  let img =
    { img with
      Link.i_stabs =
        String.sub stabs 0 pos ^ String.sub stabs (pos + len) (String.length stabs - pos - len) }
  in
  expect_flagged "stabs record spliced out" F.Validity_missing (D.check img ps)

let test_mut_validity_unsound () =
  let img, ps = sparc_fib () in
  (* scrub the ranges from BOTH tables, consistently: every artifact-level
     check stays clean, and only recomputing the analysis from source can
     tell that the tables claim less than the compiler proves *)
  let rec scrub ps = match drop_ps_validity ps with Some ps -> scrub ps | None -> ps in
  let ps = scrub ps in
  let img = { img with Link.i_stabs = drop_all_stabs_valid img.Link.i_stabs } in
  let artifact_only = D.check img ps in
  check Alcotest.string "consistent scrub passes the artifact checks" ""
    (pp_findings artifact_only);
  expect_flagged "recompute from source" F.Validity_unsound
    (D.check ~sources:fib_sources img ps)

(* --- the u16 line clamp --------------------------------------------------------- *)

let test_clamp_boundary () =
  let module E = Ldb_cc.Stabsemit in
  check Alcotest.int "65535 passes" 65535 (E.clamp_desc 65535);
  check Alcotest.int "65536 clamps" 65535 (E.clamp_desc 65536);
  check Alcotest.int "negative clamps to 0" 0 (E.clamp_desc (-3))

let test_clamp_end_to_end () =
  (* a function living past line 65535: the PostScript table keeps the
     real line, the stabs clamp — the differential pass must report the
     clamp (and nothing else) *)
  let src = String.make 65600 '\n' ^ "int main(void) { return 0; }\n" in
  let img, ps = build ~arch:Arch.Vax [ ("deep.c", src) ] in
  (match Sd.find (Sd.start img) "main" with
  | Some s -> check Alcotest.int "emitted stabs desc clamped" 65535 s.Sd.st_desc
  | None -> Alcotest.fail "no stab for main");
  let fs = D.check img ps in
  expect_flagged "clamped line" F.Line_clamped fs;
  List.iter
    (fun (f : F.t) ->
      if f.F.kind <> F.Line_clamped then
        Alcotest.failf "unexpected finding: %s" (F.to_string f))
    fs

(* --- JSON format pin ------------------------------------------------------------ *)

let test_json_pin () =
  let f = { F.kind = F.Bad_nop; target = "mips"; where = "0x001000"; msg = {|say "hi"|} } in
  check Alcotest.string "finding JSON"
    {|{"target":"mips","kind":"bad-nop","where":"0x001000","msg":"say \"hi\""}|} (F.to_json f);
  let g = { P.kind = Irlint.Uninit_read; file = "a.c"; line = 3; col = 5; msg = "m" } in
  check Alcotest.string "irlint JSON"
    {|{"kind":"uninit-read","file":"a.c","line":3,"col":5,"msg":"m"}|}
    (P.to_json Irlint.kind_name g)

(** Each finding module's [kind_of_name] is derived from its one list of
    kinds; every kind must come back from its own name. *)
let test_kind_names () =
  let roundtrip modname kinds name of_name =
    check Alcotest.bool (modname ^ " lists each kind once") true
      (List.length (List.sort_uniq compare kinds) = List.length kinds);
    List.iter
      (fun k -> check Alcotest.bool (modname ^ " " ^ name k) true (of_name (name k) = Some k))
      kinds
  in
  roundtrip "Finding" F.kinds F.kind_name F.kind_of_name;
  roundtrip "Irlint" Irlint.kinds Irlint.kind_name Irlint.kind_of_name;
  roundtrip "Lattice" Ldb_pscheck.Lattice.kinds Ldb_pscheck.Lattice.kind_name
    Ldb_pscheck.Lattice.kind_of_name;
  check Alcotest.bool "an unknown name is no kind" true (F.kind_of_name "no-such-kind" = None);
  (* the front end's one -ignore takes a kind of any checker *)
  let names =
    List.map F.kind_name F.kinds
    @ List.map Irlint.kind_name Irlint.kinds
    @ List.map Ldb_pscheck.Lattice.kind_name Ldb_pscheck.Lattice.kinds
  in
  check Alcotest.int "no name is shared by two checkers" (List.length names)
    (List.length (List.sort_uniq compare names))

(* --- IR dataflow lint ------------------------------------------------------------ *)

let irlint_of ?(arch = Arch.Vax) src =
  Irlint.check_unit ~file:"t.c" (Ldb_cc.Compile.translate ~arch ~file:"t.c" src)

let find_kind kind fs = List.filter (fun (f : Irlint.finding) -> f.P.kind = kind) fs

let test_ir_uninit_read () =
  let fs =
    irlint_of {|
int f(void)
{
    int x;
    int y;
    y = x + 1;
    return y;
}
|}
  in
  match find_kind Irlint.Uninit_read fs with
  | [ f ] ->
      check Alcotest.int "line" 6 f.P.line;
      check Alcotest.bool "names x" true
        (String.length f.P.msg >= 1 && String.sub f.P.msg 0 1 = "x")
  | fs' -> Alcotest.failf "expected one uninit-read, got %d" (List.length fs')

let test_ir_conditional_init () =
  let fs =
    irlint_of {|
int k(int c)
{
    int x;
    if (c) x = 1;
    return x;
}
|}
  in
  check Alcotest.bool "may-uninit flagged" true (find_kind Irlint.Uninit_read fs <> [])

let test_ir_unreachable () =
  let fs =
    irlint_of {|
int g(void)
{
    int a;
    a = 1;
    return a;
    a = 2;
    return a;
}
|}
  in
  match find_kind Irlint.Unreachable fs with
  | [] -> Alcotest.fail "expected an unreachable finding"
  | f :: _ -> check Alcotest.int "line" 7 f.P.line

let test_ir_dead_store () =
  let fs =
    irlint_of {|
int h(void)
{
    int x;
    x = 1;
    x = 2;
    return x;
}
|}
  in
  match find_kind Irlint.Dead_store fs with
  | [ f ] -> check Alcotest.int "line" 5 f.P.line
  | fs' -> Alcotest.failf "expected one dead-store, got %d" (List.length fs')

let test_ir_examples_clean () =
  List.iter
    (fun arch ->
      List.iter
        (fun (file, src) ->
          let fs = irlint_of ~arch src in
          if fs <> [] then
            Alcotest.failf "%s on %s: %s" file (Arch.name arch)
              (String.concat "\n" (List.map (P.to_string Irlint.kind_name) fs)))
        [ ("fib.c", Testkit.fib_c); ("structs.c", structs_c); ("register.c", register_c) ])
    Arch.all

(* every finding of a unit is reported: no global cap trims the list *)
let test_ir_findings_uncapped () =
  let n = 1200 in
  let body = String.concat "" (List.init n (fun i -> Printf.sprintf "    y = x + %d;\n" i)) in
  let fs = irlint_of (Printf.sprintf "int f(void)\n{\n    int x;\n    int y;\n%s    return y;\n}\n" body) in
  check Alcotest.int "one uninit-read per read of x" n (List.length (find_kind Irlint.Uninit_read fs));
  check Alcotest.int "every overwritten store is dead" (n - 1)
    (List.length (find_kind Irlint.Dead_store fs))

(* --- core dumps ----------------------------------------------------------------- *)

let image_and_core ~arch =
  let img, _ = build ~arch [ ("fib.c", Testkit.fib_c) ] in
  let proc = Link.load img in
  (img, Core.of_proc proc ~signal:5 ~code:0)

let test_core_clean () =
  List.iter
    (fun arch ->
      let img, core = image_and_core ~arch in
      match Core.of_string (Core.to_string core) with
      | Ok (co, warnings) ->
          Alcotest.(check int) (Arch.name arch ^ " no salvage") 0 (List.length warnings);
          check Alcotest.string (Arch.name arch ^ " core clean") ""
            (pp_findings (D.check_core img co))
      | Error m -> Alcotest.failf "%s: unreadable round-trip: %s" (Arch.name arch) m)
    Arch.all

let test_core_arch_mismatch () =
  let img, _ = image_and_core ~arch:Arch.Sparc in
  let _, core = image_and_core ~arch:Arch.Vax in
  expect_flagged "foreign core" F.Core_arch (D.check_core img core)

let test_core_bad_crc () =
  let img, core = image_and_core ~arch:Arch.Sparc in
  let sec = List.hd core.Core.co_sections in
  let flipped =
    patch_bytes sec.Core.sec_bytes 0
      (String.make 1 (Char.chr (Char.code sec.Core.sec_bytes.[0] lxor 0xff)))
  in
  let core' =
    { core with
      Core.co_sections =
        { sec with Core.sec_bytes = flipped } :: List.tl core.Core.co_sections }
  in
  expect_flagged "flipped byte" F.Core_crc (D.check_core img core')

let test_core_reg_width () =
  let img, core = image_and_core ~arch:Arch.Sparc in
  let core' = { core with Core.co_regs = Array.sub core.Core.co_regs 0 8 } in
  expect_flagged "truncated register file" F.Core_reg_width (D.check_core img core')

let test_core_pc_outside () =
  let img, core = image_and_core ~arch:Arch.Sparc in
  let core' = { core with Core.co_pc = Ram.Layout.data_base } in
  expect_flagged "pc in data segment" F.Core_pc (D.check_core img core')

let () =
  Alcotest.run "dbgcheck"
    [
      ( "clean",
        [ Alcotest.test_case "examples x targets: zero findings" `Quick test_clean_examples ] );
      ( "corpus",
        [
          Alcotest.test_case "overwritten nop" `Quick test_mut_bad_nop;
          Alcotest.test_case "slot re-pointed off-boundary" `Quick test_mut_misaligned_stop;
          Alcotest.test_case "nop_advance skew" `Quick test_mut_nop_advance;
          Alcotest.test_case "undecodable code" `Quick test_mut_bad_decode;
          Alcotest.test_case "renamed symtab anchor" `Quick test_mut_unresolved_anchor;
          Alcotest.test_case "anchor into code segment" `Quick test_mut_anchor_bad_segment;
          Alcotest.test_case "text/data alias" `Quick test_mut_alias_clash;
          Alcotest.test_case "dangling anchor slot" `Quick test_mut_dangling_slot;
          Alcotest.test_case "looping scope chain x targets" `Quick test_mut_scope_loop;
          Alcotest.test_case "corrupted frame size" `Quick test_mut_frame_size;
          Alcotest.test_case "bad register variable" `Quick test_mut_bad_reg_var;
          Alcotest.test_case "missing RPT entry" `Quick test_mut_rpt_missing;
          Alcotest.test_case "skewed RPT entry" `Quick test_mut_rpt_skew;
          Alcotest.test_case "skewed stabs line" `Quick test_mut_stabs_line_skew;
          Alcotest.test_case "renamed stabs symbol" `Quick test_mut_stabs_name_skew;
          Alcotest.test_case "corrupt loader table" `Quick test_mut_table_error;
          Alcotest.test_case "hostile tables x targets: one table error" `Quick
            test_hostile_tables;
          Alcotest.test_case "ragged /validity x targets" `Quick test_malformed_validity;
          Alcotest.test_case "validity: PS fact code corrupt" `Quick
            test_mut_validity_ps_bad_fact;
          Alcotest.test_case "validity: PS ranges shifted" `Quick
            test_mut_validity_ps_shifted;
          Alcotest.test_case "validity: PS ranges dropped" `Quick
            test_mut_validity_ps_dropped;
          Alcotest.test_case "validity: stabs record corrupt" `Quick
            test_mut_validity_stabs_corrupt;
          Alcotest.test_case "validity: stabs fact swapped" `Quick
            test_mut_validity_stabs_swapped;
          Alcotest.test_case "validity: stabs record dropped" `Quick
            test_mut_validity_stabs_dropped;
          Alcotest.test_case "validity: consistent scrub is unsound" `Quick
            test_mut_validity_unsound;
        ] );
      ( "clamp",
        [
          Alcotest.test_case "u16 boundary" `Quick test_clamp_boundary;
          Alcotest.test_case "end to end" `Quick test_clamp_end_to_end;
        ] );
      ( "core",
        [
          Alcotest.test_case "round-trip x targets: zero findings" `Quick test_core_clean;
          Alcotest.test_case "architecture mismatch" `Quick test_core_arch_mismatch;
          Alcotest.test_case "section CRC" `Quick test_core_bad_crc;
          Alcotest.test_case "register-file width" `Quick test_core_reg_width;
          Alcotest.test_case "fault pc outside code" `Quick test_core_pc_outside;
        ] );
      ( "format",
        [ Alcotest.test_case "JSON pin" `Quick test_json_pin;
          Alcotest.test_case "kind names round-trip" `Quick test_kind_names ] );
      ( "irlint",
        [
          Alcotest.test_case "uninitialized read" `Quick test_ir_uninit_read;
          Alcotest.test_case "conditional init" `Quick test_ir_conditional_init;
          Alcotest.test_case "unreachable statement" `Quick test_ir_unreachable;
          Alcotest.test_case "dead store" `Quick test_ir_dead_store;
          Alcotest.test_case "examples lint clean" `Quick test_ir_examples_clean;
          Alcotest.test_case "findings uncapped" `Quick test_ir_findings_uncapped;
        ] );
    ]
