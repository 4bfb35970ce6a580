module github.com/h2cloud/h2cloud/benchmark

go 1.22

require github.com/h2cloud/h2cloud v0.0.0

replace github.com/h2cloud/h2cloud => ../
