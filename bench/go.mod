module sciview/bench

go 1.22

require sciview v0.0.0

replace sciview => ../
