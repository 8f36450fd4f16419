"""A tour of the scenario language toolchain.

Walks through tokenizing, parsing, validating, formatting and stitching
one small program, including what diagnostics look like when things go
wrong. Run it directly:

    python demos/01_language_tour.py
"""

from scenforge.scenic import (
    compile_section,
    default_registry,
    format_program,
    parse_program,
    render_diagnostics,
    stitch,
    tokenize,
    validate,
)

SOURCE = """\
BIKE_SPEED = Normal(10, 1)
BRAKE_ACTION = TruncatedNormal(0.95, 0.05, 0.9, 1.0)

behavior BikeBehavior(speed):
    do FollowLaneBehavior(speed)
    interrupt when simulation_time > 5:
        take SetBrakeAction(BRAKE_ACTION)

startLane = Uniform(*network.lanes)
ego = new Car at startLane.centerline[-1]
bike = new Bicycle following roadDirection from startLane.centerline[-1] for -8,
    with behavior BikeBehavior(BIKE_SPEED)
require BIKE_SPEED > 5
"""

# --- tokens ------------------------------------------------------------

tokens, _ = tokenize("EGO_SPEED = 10")
print("token stream for 'EGO_SPEED = 10':")
print("  ", [(t.kind.value, t.text) for t in tokens])

# --- parsing -----------------------------------------------------------

result = parse_program(SOURCE)
print("\nparse ok:", result.ok)
program = result.program
print(
    f"sections: {len(program.constants)} constants, "
    f"{len(program.behaviors)} behaviors, {len(program.spatial)} spatial"
)

# --- diagnostics with locations -----------------------------------------

broken = parse_program("X = )\nrequire\n")
print("\ndiagnostics for a broken program:")
print(render_diagnostics(broken.diagnostics))

# --- validation ----------------------------------------------------------

registry = default_registry()
print("\nvalid program diagnostics:", validate(program, registry))

unquoted = "TRUCK_MODEL = vehicle.carlamotors.carlacola"
_, diagnostics = compile_section(unquoted, "constants", registry)
print("unquoted model string diagnostic:")
print(render_diagnostics(diagnostics))

# --- canonical formatting round trip ---------------------------------------

rendered = format_program(program)
assert parse_program(rendered).program == program
print("\ncanonical form round-trips; first lines:")
print("\n".join(rendered.splitlines()[:4]))

# --- stitching sections ------------------------------------------------------

# stitch takes section texts keyed by kind, in any order
stitched = stitch({"spatial": "ego = new Car at (0, 0)", "constants": "SPEED = Range(5, 15)"})
print("\nstitched program (constants always come first):")
print(stitched)
