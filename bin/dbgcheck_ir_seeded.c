/* Seeded defects for dbgcheck's IR lint: one uninitialized read, one
   dead store and one unreachable statement.  The @lint alias diffs
   dbgcheck -json over this file against dbgcheck_ir.expected.json. */
int seeded(int c)
{
    int x;
    int y;
    int z;
    y = x + c;
    z = 1;
    z = y;
    return z;
    y = 2;
    return y;
}
int main(void) { return seeded(1); }
