(** The benchmark harness: regenerates every table and figure of the
    paper's evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md
    for paper-vs-measured numbers).

    T1  machine-dependent code per target        (Sec. 4.3 table)
    T2  startup-phase times vs a stabs debugger  (Sec. 7 table)
    T3  stopping-point no-op overhead, 16-19%    (Sec. 3)
    T4  restricted scheduling on SIM-MIPS, ~13%  (Sec. 3)
    T5  PostScript vs stabs symbol-table size    (Sec. 7: ~9x, ~2x compressed)
    T6  deferred symbol-table reading, ~40%      (Sec. 5)
    T7  size of the IR-to-PostScript rewriter    (Sec. 5: 124 lines / 112 ops)

    Timed rows use one Bechamel [Test.make] each; structural rows are
    computed directly.  Run with: dune exec bench/main.exe *)

open Ldb_machine
open Bechamel
open Bechamel.Toolkit

(* ---------------------------------------------------------------------- *)
(* bechamel plumbing: estimate ns/run for a set of staged tests           *)

let measure_tests (tests : Test.t list) : (string * float) list =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = [ Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:400 ~quota:(Time.second 0.25) ~kde:None ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name:"ldb" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> (name, est) :: acc
      | _ -> acc)
    results []

let ns_to_ms ns = ns /. 1_000_000.0

(* ---------------------------------------------------------------------- *)
(* workloads                                                               *)

let fib_c =
  {|void fib(int n)
{
    static int a[20];
    if (n > 20) n = 20;
    a[0] = a[1] = 1;
    { int i;
      for (i=2; i<n; i++)
          a[i] = a[i-1] + a[i-2];
    }
    { int j;
      for (j=0; j<n; j++)
          printf("%d ", a[j]);
    }
    printf("\n");
}
int main(void) { fib(10); return 0; }
|}

let hello_c = [ ("hello.c", "int main(void) { printf(\"hello, world\\n\"); return 0; }") ]

(** A program of lcc-ish scale: [n] functions with locals, loops, statics
    and calls, to make symbol tables large. *)
let large_program n =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "static int grid[64];\nint depth0(int x) { return x + 1; }\n";
  for i = 1 to n do
    Buffer.add_string buf
      (Printf.sprintf
         {|
static int cache%d;
int layer%d(int a, int b)
{
    int i;
    int acc;
    double scale;
    acc = 0;
    scale = a / 2.0;
    for (i = 0; i < b; i++) {
        register int t;
        t = a + i;
        acc += t * depth0(i) + (int)scale;
    }
    cache%d = acc;
    return acc;
}
|}
         i i i)
  done;
  Buffer.add_string buf
    (Printf.sprintf
       "int main(void) { printf(\"%%d\\n\", layer%d(3, 4)); return 0; }\n" n);
  [ ("large.c", Buffer.contents buf) ]

let fib_sources = [ ("fib.c", fib_c) ]

(* straight-line code, where cross-statement scheduling matters most *)
let straightline_c =
  [ ( "pack.c",
      {|int pack(int a, int b, int c, int d)
{
    int w; int x; int y; int z;
    w = a;
    x = b;
    y = c;
    z = d;
    return w + 10*x + 100*y + 1000*z;
}
int blend(int p, int q)
{
    int r0; int r1; int r2; int r3;
    r0 = p + q;
    r1 = p - q;
    r2 = p * q;
    r3 = p / (q + 1);
    return r0 + r1 + r2 + r3;
}
int main(void) { printf("%d %d
", pack(1,2,3,4), blend(9, 2)); return 0; }|} ) ]

let corpus = [ fib_sources; large_program 20; straightline_c; hello_c ]

(* ---------------------------------------------------------------------- *)

let line = String.make 78 '-'

let header title paper =
  Printf.printf "\n%s\n%s\n(paper: %s)\n%s\n" line title paper line

(* --- T1: machine-dependent code per target ----------------------------- *)

let count_loc path = Ldb_util.Loc.count_file path

let t1 () =
  header "T1  Lines of machine-dependent code per target (cf. Sec. 4.3)"
    "Debugger 476/187/206/199, PostScript 15/18/18/13, Nub 34/73/5/72; shared 12193/1203/632";
  let archs = [ "mips"; "sparc"; "m68k"; "vax" ] in
  let frame a = count_loc (Printf.sprintf "lib/ldb/frame_%s.ml" a) in
  let enc a = count_loc (Printf.sprintf "lib/machine/enc_%s.ml" a) in
  let ps a =
    match Arch.of_name a with
    | Some arch -> Ldb_util.Loc.count_string (Ldb_ldb.Mdep_ps.source arch)
    | None -> 0
  in
  let shared_dbg =
    List.fold_left (fun acc f -> acc + count_loc f) 0
      [ "lib/ldb/ldb.ml"; "lib/ldb/frame.ml"; "lib/ldb/symtab.ml"; "lib/ldb/linkerif.ml";
        "lib/ldb/breakpoint.ml"; "lib/ldb/host.ml"; "lib/amemory/amemory.ml" ]
    + Ldb_util.Loc.count_dir "lib/pscript"
  in
  let shared_ps = Ldb_util.Loc.count_string Ldb_pscript.Prelude.source in
  let shared_nub = Ldb_util.Loc.count_dir "lib/nub" in
  Printf.printf "%-22s" "";
  List.iter (Printf.printf "%8s") archs;
  Printf.printf "%10s\n" "shared";
  Printf.printf "%-22s" "Debugger (OCaml)";
  List.iter (fun a -> Printf.printf "%8d" (frame a + enc a)) archs;
  Printf.printf "%10d\n" shared_dbg;
  Printf.printf "%-22s" "PostScript";
  List.iter (fun a -> Printf.printf "%8d" (ps a)) archs;
  Printf.printf "%10d\n" shared_ps;
  Printf.printf "%-22s" "Nub+protocol";
  List.iter (fun _ -> Printf.printf "%8s" "-") archs;
  Printf.printf "%10d\n" shared_nub;
  Printf.printf
    "(per-target = stack-frame walker + instruction encoder; the nub's few\n\
    \ machine-dependent branches -- context layout, the MIPS FP word swap, the\n\
    \ 68020 80-bit save format -- live in the shared files as data)\n"

(* --- T2: startup phases -------------------------------------------------- *)

let t2 () =
  header "T2  Startup phases (cf. Sec. 7 table)"
    "M3 init 1.9s; initial PS 1.6s; symtab hello 2.2s / lcc 5.5s; connect 1.8-6.2s; dbx 1.5s gdb 1.1s";
  let arch = Arch.Mips in
  let _hello_img, hello_ps = Ldb_link.Driver.build ~arch hello_c in
  let large = large_program 120 in
  let large_img, large_ps = Ldb_link.Driver.build ~arch large in
  let large_sparc = Ldb_ldb.Host.launch ~arch:Sparc large in
  let connect_once ~arch sources =
    let d = Ldb_ldb.Ldb.create () in
    let p = Ldb_ldb.Host.launch ~arch sources in
    fun () ->
      let tg =
        Ldb_ldb.Ldb.connect d
          ~name:"bench" ~loader_ps:p.Ldb_ldb.Host.hp_loader_ps
          (Ldb_ldb.Host.open_channel p)
      in
      ignore (Ldb_ldb.Ldb.top_frame d tg)
  in
  (* the -listen daemon's connect: a session of a program whose image the
     server already holds, opened on a paused process and detached again
     (a detached process stays paused in its nub for the next open) *)
  let server_open sources =
    let sv = Ldb_ldb.Server.create () in
    let p = Ldb_ldb.Host.launch ~arch sources in
    let loader_ps = p.Ldb_ldb.Host.hp_loader_ps in
    let open_close () =
      match
        Ldb_ldb.Server.open_session sv ~name:"bench" ~loader_ps (Ldb_ldb.Host.open_channel p)
      with
      | Ok id -> Ldb_ldb.Server.close_session sv id
      | Error r -> failwith (Ldb_ldb.Server.refusal_to_string r)
    in
    open_close ();  (* the one miss: it loads the image *)
    open_close
  in
  let read_symtab ps =
    let d = Ldb_ldb.Ldb.create () in
    fun () ->
      let t = d.Ldb_ldb.Ldb.interp in
      let defs = Ldb_pscript.Value.dict_create () in
      Ldb_pscript.Interp.begin_dict t defs;
      Ldb_pscript.Interp.run_string t ps;
      Ldb_pscript.Interp.end_dict t
  in
  let tests =
    [
      Test.make ~name:"interpreter init (cf. M3 init)"
        (Staged.stage (fun () -> ignore (Ldb_pscript.Ps.create_bare ())));
      Test.make ~name:"read initial PostScript"
        (Staged.stage (fun () ->
             let t = Ldb_pscript.Ps.create_bare () in
             Ldb_pscript.Ps.load_prelude t));
      Test.make ~name:"read symtab hello.c" (Staged.stage (read_symtab hello_ps));
      Test.make ~name:"read symtab large prog" (Staged.stage (read_symtab large_ps));
      Test.make ~name:"connect (one machine)"
        (Staged.stage (connect_once ~arch:Mips hello_c));
      Test.make ~name:"session open, cached image (server)" (Staged.stage (server_open hello_c));
      Test.make ~name:"connect large (one machine)"
        (Staged.stage (connect_once ~arch:Mips large));
      Test.make ~name:"connect large (two machines)"
        (Staged.stage
           (let d = Ldb_ldb.Ldb.create () in
            let p1 = Ldb_ldb.Host.launch ~arch:Mips large in
            let p2 = Ldb_ldb.Host.launch ~arch:Mips large in
            fun () ->
              let t1 =
                Ldb_ldb.Ldb.connect d ~name:"a" ~loader_ps:p1.Ldb_ldb.Host.hp_loader_ps
                  (Ldb_ldb.Host.open_channel p1)
              in
              let t2 =
                Ldb_ldb.Ldb.connect d ~name:"b" ~loader_ps:p2.Ldb_ldb.Host.hp_loader_ps
                  (Ldb_ldb.Host.open_channel p2)
              in
              ignore (Ldb_ldb.Ldb.top_frame d t1);
              ignore (Ldb_ldb.Ldb.top_frame d t2)));
      Test.make ~name:"connect large (cross: sparc target)"
        (Staged.stage (fun () ->
             let d = Ldb_ldb.Ldb.create () in
             let tg =
               Ldb_ldb.Ldb.connect d ~name:"x"
                 ~loader_ps:large_sparc.Ldb_ldb.Host.hp_loader_ps
                 (Ldb_ldb.Host.open_channel large_sparc)
             in
             ignore (Ldb_ldb.Ldb.top_frame d tg)));
      Test.make ~name:"stabs debugger: start and read (cf. dbx/gdb)"
        (Staged.stage (fun () -> ignore (Ldb_stabsdbg.Stabsdbg.start large_img)));
    ]
  in
  let results = measure_tests tests in
  List.iter
    (fun (name, ns) -> Printf.printf "  %-52s %10.3f ms\n" name (ns_to_ms ns))
    (List.sort compare results);
  Printf.printf
    "(shape to check: interpreting PostScript symbol tables costs much more\n\
    \ than the stabs baseline, and large programs cost more than hello.c)\n"

(* --- T3: no-op overhead ---------------------------------------------------- *)

let t3 () =
  header "T3  Instruction-count increase from stopping-point no-ops"
    "no-ops increase the number of instructions by 16-19% depending on the target";
  Printf.printf "%-10s %12s %12s %10s\n" "target" "-g insns" "plain insns" "increase";
  List.iter
    (fun arch ->
      let total debug =
        List.fold_left
          (fun acc sources ->
            List.fold_left
              (fun acc (file, src) ->
                let o = Ldb_cc.Compile.compile ~debug ~arch ~file src in
                acc + fst (Ldb_cc.Compile.text_stats o))
              acc sources)
          0 corpus
      in
      let dbg = total true and plain = total false in
      Printf.printf "%-10s %12d %12d %9.1f%%\n" (Arch.name arch) dbg plain
        (100.0 *. float_of_int (dbg - plain) /. float_of_int plain))
    Arch.all

(* --- T4: restricted scheduling on SIM-MIPS ---------------------------------- *)

let t4 () =
  header "T4  SIM-MIPS delay-slot scheduling restriction"
    "debugging restricts scheduling to within expressions; MIPS code grows ~13% beyond the no-ops";
  (* padding no-ops are those not sitting under a stopping-point label *)
  let pad_count (o : Ldb_cc.Asm.t) =
    let arr = Array.of_list o.Ldb_cc.Asm.o_text in
    let n = ref 0 in
    Array.iteri
      (fun i item ->
        match item with
        | Ldb_cc.Asm.Ins Insn.Nop ->
            let after_stop =
              i > 0
              &&
              match arr.(i - 1) with
              | Ldb_cc.Asm.Label l ->
                  String.length l >= 7 && String.sub l 0 7 = "__stop$"
              | _ -> false
            in
            if not after_stop then incr n
        | _ -> ())
      arr;
    !n
  in
  let totals debug =
    List.fold_left
      (fun (pads, insns) sources ->
        List.fold_left
          (fun (pads, insns) (file, src) ->
            let o = Ldb_cc.Compile.compile ~debug ~arch:Mips ~file src in
            (pads + pad_count o, insns + fst (Ldb_cc.Compile.text_stats o)))
          (pads, insns) sources)
      (0, 0) corpus
  in
  let pad_g, insns_g = totals true in
  let pad_plain, insns_plain = totals false in
  Printf.printf "  with -g:    %4d padding no-ops in %5d instructions (%.1f%%)\n" pad_g insns_g
    (100.0 *. float_of_int pad_g /. float_of_int insns_g);
  Printf.printf "  without -g: %4d padding no-ops in %5d instructions (%.1f%%)\n" pad_plain
    insns_plain
    (100.0 *. float_of_int pad_plain /. float_of_int insns_plain);
  Printf.printf
    "(stopping-point labels end scheduling regions, so -g fills fewer delay\n\
    \ slots and pads more -- the paper's separate 13%% MIPS penalty)\n"

(* --- T5: symbol-table sizes --------------------------------------------------- *)

let t5 () =
  header "T5  PostScript vs stabs symbol-table size"
    "PostScript ~9x dbx stabs; ~2x after compress(1)";
  Printf.printf "%-12s %10s %10s %7s %12s %12s %9s\n" "program" "PS bytes" "stabs" "ratio"
    "PS compr." "stabs compr." "ratio";
  List.iter
    (fun (label, sources) ->
      let ps_bytes = ref 0 and stab_bytes = ref 0 in
      let ps_all = Buffer.create 4096 and stabs_all = Buffer.create 4096 in
      List.iter
        (fun (file, src) ->
          let o = Ldb_cc.Compile.compile ~arch:Vax ~file src in
          (match o.Ldb_cc.Asm.o_ps with
          | Some p ->
              ps_bytes := !ps_bytes + String.length p.Ldb_cc.Asm.pp_defs;
              Buffer.add_string ps_all p.Ldb_cc.Asm.pp_defs
          | None -> ());
          stab_bytes := !stab_bytes + String.length o.Ldb_cc.Asm.o_stabs;
          Buffer.add_string stabs_all o.Ldb_cc.Asm.o_stabs)
        sources;
      let psc = String.length (Ldb_util.Lzw.compress (Buffer.contents ps_all)) in
      let stc = String.length (Ldb_util.Lzw.compress (Buffer.contents stabs_all)) in
      Printf.printf "%-12s %10d %10d %6.1fx %12d %12d %8.1fx\n" label !ps_bytes !stab_bytes
        (float_of_int !ps_bytes /. float_of_int (max 1 !stab_bytes))
        psc stc
        (float_of_int psc /. float_of_int (max 1 stc)))
    [ ("fib.c", fib_sources); ("large", large_program 60); ("hello.c", hello_c) ]

(* --- T6: deferral -------------------------------------------------------------- *)

let t6 () =
  header "T6  Deferred symbol-table scanning"
    "quoting defers lexical analysis and cuts symbol-table read time by 40%";
  let arch = Arch.Vax in
  let large = large_program 120 in
  let _, ps_deferred = Ldb_link.Driver.build ~arch ~defer:true large in
  let _, ps_eager = Ldb_link.Driver.build ~arch ~defer:false large in
  let read ps () =
    let t = Ldb_pscript.Ps.create () in
    let defs = Ldb_pscript.Value.dict_create () in
    Ldb_pscript.Interp.begin_dict t defs;
    Ldb_pscript.Interp.run_string t ps;
    Ldb_pscript.Interp.end_dict t
  in
  let results =
    measure_tests
      [
        Test.make ~name:"read with deferral" (Staged.stage (read ps_deferred));
        Test.make ~name:"read without deferral" (Staged.stage (read ps_eager));
      ]
  in
  let get n =
    match List.assoc_opt ("ldb/" ^ n) results with
    | Some v -> v
    | None -> ( match List.assoc_opt n results with Some v -> v | None -> nan)
  in
  let d = get "read with deferral" and e = get "read without deferral" in
  Printf.printf "  deferred reading:   %10.3f ms\n" (ns_to_ms d);
  Printf.printf "  eager reading:      %10.3f ms\n" (ns_to_ms e);
  if d < e then
    Printf.printf "  deferral saves %.0f%% of read time\n" (100.0 *. (1.0 -. (d /. e)))
  else Printf.printf "  (deferral did not win on this run)\n"

(* --- T7: the rewriter ------------------------------------------------------------ *)

let t7 () =
  header "T7  Size of the IR-to-PostScript rewriter"
    "rewriting lcc IR into PostScript took 124 lines of C for 112 operators";
  let loc = count_loc "lib/exprserver/rewrite.ml" in
  Printf.printf "  rewriter: %d lines of OCaml for %d nominal IR operators\n" loc
    Ldb_cc.Ir.operator_count

(* --- T8 (ablation): breakpoint models --------------------------------------- *)

let t8 () =
  header "T8  Ablation: no-op-skip vs single-step breakpoint resumption"
    "Sec. 7.1 proposes replacing the no-op scheme with single-stepping; this measures the cost of each resume";
  let arch = Arch.Vax in
  let hot =
    [ ( "hot.c",
        {|int tick(int x) { return x + 1; }
int main(void) {
    int i; int acc;
    acc = 0;
    for (i = 0; i < 40; i++) acc = tick(acc);
    printf("%d\n", acc);
    return 0;
}|} ) ]
  in
  let run_with plant =
    fun () ->
      let d = Ldb_ldb.Ldb.create () in
      let p = Ldb_ldb.Host.launch ~arch hot in
      let tg =
        Ldb_ldb.Ldb.connect d ~name:"abl" ~loader_ps:p.Ldb_ldb.Host.hp_loader_ps
          (Ldb_ldb.Host.open_channel p)
      in
      plant d tg;
      let rec drive hits =
        match Ldb_ldb.Ldb.continue_ d tg with
        | Ok (Ldb_ldb.Ldb.Stopped _) -> drive (hits + 1)
        | _ -> hits
      in
      ignore (drive 0)
  in
  let noop_skip d tg = ignore (Ldb_ldb.Ldb.break_function d tg "tick") in
  let single_step d tg =
    (* the same entry point, but planted as a general breakpoint past the
       no-ops so every resume does restore / step / replant *)
    let entry = Ldb_ldb.Ldb.break_function d tg "tick" in
    Ldb_ldb.Ldb.clear_breakpoint tg ~addr:entry;
    let nop = tg.Ldb_ldb.Ldb.tg_tdesc.Target.nop in
    let rec first_real a =
      if Ldb_ldb.Breakpoint.fetch_bytes tg.Ldb_ldb.Ldb.tg_wire a (String.length nop) = nop
      then first_real (a + String.length nop)
      else a
    in
    Ldb_ldb.Ldb.break_address d tg ~addr:(first_real entry)
  in
  let results =
    measure_tests
      [
        Test.make ~name:"40 hits, no-op skip (paper's interim scheme)"
          (Staged.stage (run_with noop_skip));
        Test.make ~name:"40 hits, restore/step/replant (Sec. 7.1 model)"
          (Staged.stage (run_with single_step));
      ]
  in
  List.iter
    (fun (name, ns) -> Printf.printf "  %-52s %10.3f ms\n" name (ns_to_ms ns))
    (List.sort compare results);
  Printf.printf
    "(the general model costs one extra protocol round trip and two code\n\
    \ stores per hit, but plants anywhere and needs no compiler no-ops)\n"

let () =
  Printf.printf "ldb reproduction benchmarks (see EXPERIMENTS.md for commentary)\n";
  t1 ();
  t3 ();
  t4 ();
  t5 ();
  t7 ();
  t8 ();
  t6 ();
  t2 ();
  Printf.printf "\n%s\ndone.\n" line
